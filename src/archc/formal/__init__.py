from .encode import FormalUnsupported, encode_bmc, formal_scope_check
from .solver import SolverError, available_solvers, run_solver
from .verify import FormalVerdict, PropResult, trace_to_stimulus, verify

__all__ = [
    "FormalUnsupported", "encode_bmc", "formal_scope_check",
    "SolverError", "available_solvers", "run_solver",
    "FormalVerdict", "PropResult", "trace_to_stimulus", "verify",
]
