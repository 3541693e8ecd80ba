"""Generic mixed-integer linear program container.

A problem is stored as the arrays the simplex consumes: per variable a name,
bounds and a binary flag; per row a name, a sense and a
right-hand side; one CSC constraint matrix assembled once by
:class:`ProblemBuilder`; and a linear minimization objective with an
optional constant offset.  Instances are immutable; transformations return
copies that share every array they leave untouched.  Callers address
variables by column index; the names label the deterministic LP-format text
export (terms of a row in column order), which supports cross-checking
against external solvers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True, eq=False)
class MilpProblem:
    names: tuple[str, ...]
    lb: np.ndarray
    ub: np.ndarray
    is_binary: np.ndarray  # bool mask over variables
    A: sp.csc_matrix
    senses: tuple[str, ...]  # 'L' (<=), 'G' (>=), 'E' (=) per row
    b: np.ndarray
    row_names: tuple[str, ...]
    objective: np.ndarray
    objective_offset: float = 0.0
    name: str = "problem"

    @property
    def n_variables(self) -> int:
        return len(self.names)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def n_binaries(self) -> int:
        return int(self.is_binary.sum())

    def binary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.is_binary)

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lb.copy(), self.ub.copy()

    def constraint_arrays(self) -> tuple[sp.csc_matrix, list[str], np.ndarray]:
        """(A, senses, b) with rows in declaration order."""
        return self.A, list(self.senses), self.b.copy()

    def with_rhs(self, row_name: str, rhs: float) -> "MilpProblem":
        try:
            k = self.row_names.index(row_name)
        except ValueError:
            raise KeyError(f"no row named {row_name!r}") from None
        b = self.b.copy()
        b[k] = rhs
        return replace(self, b=b)


class ProblemBuilder:
    """Incremental construction with name uniqueness enforcement."""

    def __init__(self, name: str = "problem"):
        self.name = name
        self._index: dict[str, int] = {}
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._binary: list[bool] = []
        self._row_names: dict[str, None] = {}
        self._senses: list[str] = []
        self._rhs: list[float] = []
        self._ri: list[int] = []
        self._ci: list[int] = []
        self._data: list[float] = []
        self._obj: dict[int, float] = {}
        self._offset = 0.0

    def add_variable(self, name, lb, ub, binary=False) -> int:
        if name in self._index:
            raise ValueError(f"duplicate variable name {name!r}")
        idx = len(self._index)
        self._index[name] = idx
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._binary.append(bool(binary))
        return idx

    def add_row(self, name, terms, sense, rhs) -> int:
        if name in self._row_names:
            raise ValueError(f"duplicate row name {name!r}")
        k = len(self._row_names)
        self._row_names[name] = None
        acc: dict[int, float] = {}
        for idx, coef in terms:
            if coef != 0.0:
                acc[idx] = acc.get(idx, 0.0) + float(coef)
        self._ri.extend([k] * len(acc))
        self._ci.extend(int(i) for i in acc)
        self._data.extend(acc.values())
        self._senses.append(sense)
        self._rhs.append(float(rhs))
        return k

    def add_objective_term(self, idx: int, coef: float) -> None:
        if coef:
            self._obj[idx] = self._obj.get(idx, 0.0) + float(coef)

    def add_objective_offset(self, value: float) -> None:
        self._offset += float(value)

    def build(self) -> MilpProblem:
        n, m = len(self._index), len(self._row_names)
        objective = np.zeros(n)
        for idx, coef in self._obj.items():
            objective[idx] = coef
        return MilpProblem(
            names=tuple(self._index),
            lb=np.array(self._lb, dtype=float),
            ub=np.array(self._ub, dtype=float),
            is_binary=np.array(self._binary, dtype=bool),
            A=sp.csc_matrix((self._data, (self._ri, self._ci)), shape=(m, n)),
            senses=tuple(self._senses),
            b=np.array(self._rhs, dtype=float),
            row_names=tuple(self._row_names),
            objective=objective,
            objective_offset=self._offset,
            name=self.name,
        )


def sanitize_name(raw: str) -> str:
    """``raw`` with each character outside [A-Za-z0-9] spelled ``__<hex code>_``.

    Alphanumeric ids keep their text, and distinct ids give distinct names.
    An escape opens with two underscores where a separator is one, so names
    that join sanitized ids with ``_`` stay distinct too.
    """
    return re.sub(r"[^A-Za-z0-9]", lambda m: f"__{ord(m.group()):x}_", raw)


def with_no_good_cut(problem: MilpProblem, columns: np.ndarray, values: np.ndarray) -> MilpProblem:
    """Append the row  sum of x over the columns whose value is 0 >= 1.

    The binaries ``columns`` take ``values`` in the assignment to cut.
    Survivors must select at least one unit the assignment left out, so the
    cut removes the assignment itself and everything inside its support.
    """
    row = np.zeros(problem.n_variables)
    row[np.asarray(columns)[np.round(values) == 0]] = 1.0
    return replace(
        problem,
        A=sp.vstack([problem.A, sp.csr_matrix(row)], format="csc"),
        senses=problem.senses + ("G",),
        b=np.append(problem.b, 1.0),
        row_names=problem.row_names + ("no_good",),
        name=problem.name + "+cut",
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def _term(coef: float, name: str) -> str:
    return f"{'+' if coef >= 0 else '-'} {_fmt(abs(coef))} {name}"


def write_lp_text(problem: MilpProblem) -> str:
    """Deterministic LP-format text: objective, rows, bounds, binaries."""
    names = problem.names
    lines = [f"\\ {problem.name}", "Minimize"]
    terms = [_term(problem.objective[i], names[i]) for i in np.flatnonzero(problem.objective)]
    if problem.objective_offset:
        terms.append(f"{'+' if problem.objective_offset >= 0 else '-'} {_fmt(abs(problem.objective_offset))}")
    lines.append(" obj: " + (" ".join(terms) if terms else "0"))
    lines.append("Subject To")
    sense_txt = {"L": "<=", "G": ">=", "E": "="}
    rows = problem.A.tocsr()
    for k, row_name in enumerate(problem.row_names):
        span = slice(rows.indptr[k], rows.indptr[k + 1])
        parts = [_term(c, names[j]) for j, c in zip(rows.indices[span], rows.data[span])]
        lines.append(
            f" {row_name}: " + " ".join(parts) + f" {sense_txt[problem.senses[k]]} {_fmt(problem.b[k])}"
        )
    lines.append("Bounds")
    for name, lo, hi in zip(names, problem.lb, problem.ub):
        lo_txt = "-inf" if np.isinf(lo) else _fmt(lo)
        hi_txt = "+inf" if np.isinf(hi) else _fmt(hi)
        lines.append(f" {lo_txt} <= {name} <= {hi_txt}")
    binaries = [names[i] for i in problem.binary_indices()]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_lp_file(problem: MilpProblem, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_lp_text(problem))
