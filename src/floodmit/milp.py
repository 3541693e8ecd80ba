"""Generic mixed-integer linear program container.

Holds variables (continuous or binary, with bounds), linear rows, and a
linear minimization objective with an optional constant offset.  Instances
are treated as immutable once built; transformations return modified copies
that share untouched row storage.  A deterministic LP-format text export
supports cross-checking against external solvers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float
    ub: float
    is_binary: bool = False
    meta: tuple = ()


@dataclass(frozen=True)
class Row:
    name: str
    idx: np.ndarray
    coef: np.ndarray
    sense: str  # 'L' (<=), 'G' (>=), 'E' (=)
    rhs: float


@dataclass
class MilpProblem:
    variables: list[Variable]
    rows: list[Row]
    objective: np.ndarray
    objective_offset: float = 0.0
    name: str = "problem"
    index_of: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index_of:
            self.index_of = {v.name: i for i, v in enumerate(self.variables)}

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_binaries(self) -> int:
        return sum(1 for v in self.variables if v.is_binary)

    def binary_indices(self) -> np.ndarray:
        return np.array([i for i, v in enumerate(self.variables) if v.is_binary], dtype=np.int64)

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lb = np.array([v.lb for v in self.variables])
        ub = np.array([v.ub for v in self.variables])
        return lb, ub

    def constraint_arrays(self) -> tuple[sp.csc_matrix, list[str], np.ndarray]:
        """(A, senses, b) with rows in declaration order."""
        data, ri, ci = [], [], []
        for k, row in enumerate(self.rows):
            ri.extend([k] * len(row.idx))
            ci.extend(row.idx.tolist())
            data.extend(row.coef.tolist())
        A = sp.csc_matrix(
            (data, (ri, ci)), shape=(len(self.rows), self.n_variables)
        )
        senses = [r.sense for r in self.rows]
        b = np.array([r.rhs for r in self.rows])
        return A, senses, b

    # -- transforms (copy-on-write) ---------------------------------------

    def with_rows(self, extra_rows: list[Row], name_suffix: str = "") -> "MilpProblem":
        return MilpProblem(
            variables=self.variables,
            rows=self.rows + list(extra_rows),
            objective=self.objective,
            objective_offset=self.objective_offset,
            name=self.name + name_suffix,
            index_of=self.index_of,
        )

    def with_rhs(self, row_name: str, rhs: float) -> "MilpProblem":
        rows = []
        found = False
        for row in self.rows:
            if row.name == row_name:
                rows.append(Row(row.name, row.idx, row.coef, row.sense, rhs))
                found = True
            else:
                rows.append(row)
        if not found:
            raise KeyError(f"no row named {row_name!r}")
        return MilpProblem(
            variables=self.variables,
            rows=rows,
            objective=self.objective,
            objective_offset=self.objective_offset,
            name=self.name,
            index_of=self.index_of,
        )


class ProblemBuilder:
    """Incremental construction with name uniqueness enforcement."""

    def __init__(self, name: str = "problem"):
        self.name = name
        self._variables: list[Variable] = []
        self._index: dict[str, int] = {}
        self._rows: list[Row] = []
        self._row_names: set[str] = set()
        self._obj: dict[int, float] = {}
        self._offset = 0.0

    def add_variable(self, name, lb, ub, binary=False, meta=()) -> int:
        if name in self._index:
            raise ValueError(f"duplicate variable name {name!r}")
        idx = len(self._variables)
        self._variables.append(Variable(name, float(lb), float(ub), binary, tuple(meta)))
        self._index[name] = idx
        return idx

    def add_row(self, name, terms, sense, rhs) -> None:
        if name in self._row_names:
            raise ValueError(f"duplicate row name {name!r}")
        self._row_names.add(name)
        acc: dict[int, float] = {}
        for idx, coef in terms:
            if coef != 0.0:
                acc[idx] = acc.get(idx, 0.0) + float(coef)
        idx_arr = np.fromiter(acc.keys(), dtype=np.int64, count=len(acc))
        coef_arr = np.fromiter(acc.values(), dtype=float, count=len(acc))
        self._rows.append(Row(name, idx_arr, coef_arr, sense, float(rhs)))

    def add_objective_term(self, idx: int, coef: float) -> None:
        if coef:
            self._obj[idx] = self._obj.get(idx, 0.0) + float(coef)

    def add_objective_offset(self, value: float) -> None:
        self._offset += float(value)

    def build(self) -> MilpProblem:
        objective = np.zeros(len(self._variables))
        for idx, coef in self._obj.items():
            objective[idx] = coef
        return MilpProblem(
            variables=self._variables,
            rows=self._rows,
            objective=objective,
            objective_offset=self._offset,
            name=self.name,
            index_of=self._index,
        )


def sanitize_name(raw: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", raw)


def with_no_good_cut(problem: MilpProblem, assignment: dict[str, int], tag: str = "") -> MilpProblem:
    """Append the row  sum of x over the assignment's zero positions >= 1.

    Survivors must select at least one unit the assignment left out, so the
    cut removes the assignment itself and everything inside its support.
    """
    terms = []
    for name, value in sorted(assignment.items()):
        if name not in problem.index_of:
            raise KeyError(f"no variable named {name!r}")
        if int(round(value)) == 0:
            terms.append((problem.index_of[name], 1.0))
    idx = np.array([i for i, _ in terms], dtype=np.int64)
    coef = np.ones(len(terms))
    row = Row(f"no_good{tag}", idx, coef, "G", 1.0)
    return problem.with_rows([row], name_suffix="+cut")


def _fmt(value: float) -> str:
    return repr(float(value))


def write_lp_text(problem: MilpProblem) -> str:
    """Deterministic LP-format text: objective, rows, bounds, binaries."""
    lines = [f"\\ {problem.name}", "Minimize"]
    terms = []
    for i in np.flatnonzero(problem.objective):
        terms.append(f"{'+' if problem.objective[i] >= 0 else '-'} {_fmt(abs(problem.objective[i]))} {problem.variables[i].name}")
    if problem.objective_offset:
        terms.append(f"{'+' if problem.objective_offset >= 0 else '-'} {_fmt(abs(problem.objective_offset))}")
    lines.append(" obj: " + (" ".join(terms) if terms else "0"))
    lines.append("Subject To")
    sense_txt = {"L": "<=", "G": ">=", "E": "="}
    for row in problem.rows:
        parts = []
        for idx, coef in zip(row.idx, row.coef):
            parts.append(f"{'+' if coef >= 0 else '-'} {_fmt(abs(coef))} {problem.variables[idx].name}")
        lines.append(f" {row.name}: " + " ".join(parts) + f" {sense_txt[row.sense]} {_fmt(row.rhs)}")
    lines.append("Bounds")
    for v in problem.variables:
        lo = "-inf" if np.isinf(v.lb) else _fmt(v.lb)
        hi = "+inf" if np.isinf(v.ub) else _fmt(v.ub)
        lines.append(f" {lo} <= {v.name} <= {hi}")
    binaries = [v.name for v in problem.variables if v.is_binary]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_lp_file(problem: MilpProblem, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_lp_text(problem))
