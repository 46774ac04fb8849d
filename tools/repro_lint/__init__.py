"""repro-lint: domain-specific static analysis for the MHA reproduction.

Single-file rules patrol invariants the paper states but Python cannot
enforce by itself:

* **RL001 determinism** — no wall-clock reads or unseeded RNGs in the
  planning/simulation/online subsystems.
* **RL002 units discipline** — byte quantities are spelled with
  ``repro.units`` constants, never raw ``65536``-style literals.
* **RL003 parallel safety** — only module-level callables go into
  ``parallel_map``'s process fan-out.
* **RL005 float equality** — no exact ``==``/``!=`` on floats outside
  tests.

Project-wide families check what one file cannot show: twin contracts
(RL1xx), seed lineage and iteration order (RL2xx), and the
interprocedural effect system (RL3xx; RL301 keeps Eq. 2 evaluation
free of argument writes, globals, I/O and lazy imports).

See ``docs/static-analysis.md`` for the full rule catalogue and the
checker-authoring guide.
"""

from .diagnostics import Diagnostic
from .engine import lint_paths, lint_source
from .registry import Checker, all_checkers, register

__all__ = [
    "Checker",
    "Diagnostic",
    "all_checkers",
    "lint_paths",
    "lint_source",
    "register",
]
