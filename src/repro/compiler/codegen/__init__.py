"""Code generators: the lowered Python form, Octave, and Spark."""

from ..._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "LoweredTrigger": "fused",
    "compile_fused_trigger": "fused",
    "compile_trigger_function": "fused",
    "generate_octave_trigger": "octave_gen",
    "generate_python_trigger": "fused",
    "generate_spark_trigger": "spark_gen",
    "lower_trigger": "fused",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
