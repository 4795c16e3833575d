"""A name-only shell; the exact runs live in :mod:`rankpl.engine`.

``run_program``, ``denote`` and ``initial_ranking`` moved to
:mod:`rankpl.engine`.  The benchmark's layer tracer
(``perfbench/layertrace.py``) still imports this module and wraps
``desugar`` and the ``observeJ``/``observeL`` expansions on it, so it keeps
those three names until the tracer stops patching them; nothing calls them
here.
"""

from .syntax import desugar, expand_observe_j, expand_observe_l  # noqa: F401
