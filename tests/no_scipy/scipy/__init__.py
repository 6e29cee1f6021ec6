"""Stand-in that makes SciPy look uninstalled (``pytest --no-scipy``).

``tests/conftest.py`` puts the parent directory first on ``sys.path``
when the switch is given, so the test process and the shard workers it
spawns fail ``import scipy`` exactly as CI's no-scipy leg does.  Never
on the path otherwise.
"""

raise ModuleNotFoundError(
    "No module named 'scipy' (blocked by pytest --no-scipy)", name="scipy")
