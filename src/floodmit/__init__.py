"""Pre-hurricane flood-barrier deployment planning for electric substations.

The package decides where to stack a fixed budget of temporary flood barriers
across grid substations before an uncertain hurricane.  Candidate deployments
are scored by how much expected load shed they avoid across a set of flooding
scenarios, with grid operation modeled as a DC power-flow load-shed problem
per scenario.  Everything is deterministic given explicit seeds.
"""

__version__ = "0.1.0"

from .grid_model import GridNetwork, load_network, validate  # noqa: F401
from .mitigation import Budget, CostSchedule, MitigationPlan  # noqa: F401
from .recourse import LossWeights, RecourseEvaluator  # noqa: F401
from .scenario_model import FloodScenarioSet, load_scenarios  # noqa: F401
