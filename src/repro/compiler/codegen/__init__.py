"""Code generators: Python/NumPy (generic + fused), Octave, and Spark."""

from ..._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "FusedUnsupported": "fused",
    "compile_fused_trigger": "fused",
    "compile_trigger_function": "python_gen",
    "generate_fused_trigger": "fused",
    "generate_octave_trigger": "octave_gen",
    "generate_python_trigger": "python_gen",
    "generate_spark_trigger": "spark_gen",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
