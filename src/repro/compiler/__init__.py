"""The LINVIEW compiler: programs, Algorithm 1, optimizer, code generators."""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "Assign": "trigger",
    "UnboundDimensionError": "chain",
    "Program": "program",
    "ProgramError": "program",
    "Statement": "program",
    "Trigger": "trigger",
    "Update": "trigger",
    "chain_cost": "chain",
    "chain_split": "chain",
    "compile_program": "compile",
    "compile_trigger_function": "codegen",
    "eliminate_common_subexpressions": "optimizer",
    "eliminate_dead_code": "optimizer",
    "generate_octave_trigger": "codegen",
    "left_to_right_cost": "chain",
    "optimize_chains": "chain",
    "optimize_trigger_chains": "chain",
    "generate_python_trigger": "codegen",
    "generate_spark_trigger": "codegen",
    "optimize_trigger": "optimizer",
    "propagate_copies": "optimizer",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
