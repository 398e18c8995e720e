"""Rule-based static analysis over PDL descriptors and Cascabel programs.

The paper's toolchain only works when descriptors and annotated programs
are *jointly* consistent: variant target lists must match PDL-declared
hardware (§IV-B), data transfers follow declared interconnects (§IV-C),
and unfixed properties must be instantiable before codegen.  This package
checks those invariants statically, before selection/codegen/runtime:

* :mod:`repro.analysis.diagnostics` — structured :class:`Diagnostic`
  findings with stable rule IDs, severities, and source locations;
* :mod:`repro.analysis.rules` — the rule registry with per-rule
  enable/disable and severity overrides;
* :mod:`repro.analysis.pdl_rules` — ``PDL0xx``: descriptor-local lint;
* :mod:`repro.analysis.cascabel_rules` — ``CAS0xx``: program-local lint
  including static race detection over task access modes;
* :mod:`repro.analysis.cross_rules` — ``XAR0xx``: program × descriptor
  consistency (variant satisfiability, toolchains, transfer routes);
* :mod:`repro.analysis.interference_rules` — ``IFR0xx``: contention-domain
  hazards (undeclared shared channels, budget conflicts, dangling members);
* :mod:`repro.analysis.interference` — the whole-platform
  :class:`InterferenceReport` (domains, utilization, slowdown matrix);
* :mod:`repro.analysis.render` — text/JSON/SARIF output;
* :mod:`repro.analysis.engine` — the :class:`Linter` façade;
* :mod:`repro.analysis.cli` — the ``repro lint`` command.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    Finding,
    LintReport,
    Severity,
    SourceLocation,
)
from repro.analysis.engine import Linter, lint_platform, lint_program
from repro.analysis.interference import InterferenceReport, analyze_interference
from repro.analysis.rules import LintConfig, Rule, RuleRegistry, default_registry

__all__ = [
    "InterferenceReport",
    "analyze_interference",
    "Diagnostic",
    "Finding",
    "LintReport",
    "Severity",
    "SourceLocation",
    "Rule",
    "RuleRegistry",
    "LintConfig",
    "default_registry",
    "Linter",
    "lint_platform",
    "lint_program",
]
