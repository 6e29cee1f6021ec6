"""repro — a from-scratch reproduction of LINVIEW (SIGMOD 2014).

LINVIEW is a compilation framework for incremental view maintenance of
(iterative) linear algebra programs.  The package layout mirrors the
paper: :mod:`repro.expr` is the matrix-expression language,
:mod:`repro.delta` the delta calculus of Section 4, :mod:`repro.compiler`
Algorithm 1 plus the Section 6 optimizer and code generators,
:mod:`repro.runtime` the single-node evaluator,
:mod:`repro.distributed` the row-shard engine (worker processes over
shared memory, or its in-process reference),
:mod:`repro.iterative` the Section 3.2/5 iterative models and
evaluation strategies, and :mod:`repro.analytics` the end-user
applications (OLS, linear regression, PageRank).  :mod:`repro.backends`
supplies the pluggable numeric kernels (dense NumPy and sparse CSR)
every evaluation path dispatches through.
"""

#: The one place the version is written (``pyproject.toml`` reads it).
__version__ = "1.5.0"
