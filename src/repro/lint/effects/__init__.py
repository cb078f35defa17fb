"""Whole-program effect & determinism analysis (``--effects``).

Orchestrates the pass end to end: discover every ``.py`` file under the
requested paths, load-or-summarize each module through the on-disk
cache (:mod:`repro.lint.effects.cache`), link the summaries into a
project call graph (:mod:`repro.lint.effects.callgraph`), propagate
effects to a fixed point (:mod:`repro.lint.effects.inference`) and
evaluate the determinism contracts
(:mod:`repro.lint.effects.contracts`): RL006 nondeterministic cached
stage, RL007 impure worker job, RL008 stale ``@declares_effects``
annotation.

This package is imported lazily by the CLI — never at
``repro.lint`` import time — because production modules import
``repro.lint.contracts`` (the decorator registry) which executes
``repro/lint/__init__.py``; an eager import here would re-enter
``repro.obs`` / ``repro.store`` while they are still initializing.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import LintError
from repro.lint.config import LintConfig
from repro.lint.effects.cache import analyzer_version, load_or_summarize
from repro.lint.effects.callgraph import ProjectIndex
from repro.lint.effects.contracts import EffectFinding, evaluate_contracts
from repro.lint.effects.inference import EffectAnalysis
from repro.lint.effects.model import EFFECT_NAMES, EFFECT_RULES, ModuleSummary

__all__ = ["EffectReport", "analyze_effects", "EFFECT_NAMES", "EFFECT_RULES"]


@dataclass
class EffectReport:
    """Outcome of one ``--effects`` pass, before baseline filtering."""

    findings: List[EffectFinding] = field(default_factory=list)
    modules_analyzed: int = 0
    functions_analyzed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    disabled: int = 0  # suppressed by inline disable on the def line
    skipped_syntax: List[str] = field(default_factory=list)
    resolved_calls: int = 0
    unresolved_calls: int = 0
    contract_counts: Dict[str, int] = field(default_factory=dict)

    def summary_json(self) -> Dict[str, object]:
        """Machine-readable summary for CI step tables."""
        return {
            "modules_analyzed": self.modules_analyzed,
            "functions_analyzed": self.functions_analyzed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "resolved_calls": self.resolved_calls,
            "unresolved_calls": self.unresolved_calls,
            "disabled_inline": self.disabled,
            "skipped_syntax": list(self.skipped_syntax),
            "contracts": dict(self.contract_counts),
        }


def analyze_effects(
    paths: Sequence[Path],
    config: LintConfig,
    *,
    cache_dir: Optional[Path] = None,
) -> EffectReport:
    """Run the whole-program pass over every module under ``paths``.

    ``cache_dir=None`` disables the on-disk cache (every module is
    parsed cold).  Modules that fail to parse are skipped here — the
    per-file engine already reports them as RL000.
    """
    # Local import: engine is cli-adjacent; keep this package importable
    # without dragging the full rule registry into non-CLI consumers.
    from repro.lint.engine import _DISABLE_RE, _discover, _relpath

    report = EffectReport()
    version = analyzer_version()
    summaries: List[ModuleSummary] = []
    source_lines: Dict[str, List[str]] = {}
    for path in _discover(paths):
        relpath = _relpath(path, config.root)
        try:
            summary, source, hit = load_or_summarize(
                path, relpath, cache_dir, version
            )
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        except SyntaxError:
            report.skipped_syntax.append(relpath)
            continue
        summaries.append(summary)
        source_lines[relpath] = source.splitlines()
        report.modules_analyzed += 1
        if hit:
            report.cache_hits += 1
        else:
            report.cache_misses += 1

    index = ProjectIndex(summaries)
    analysis = EffectAnalysis(index)
    report.functions_analyzed = sum(
        len(s.functions) for s in summaries
    )
    report.resolved_calls = analysis.resolved_calls
    report.unresolved_calls = analysis.unresolved_calls

    findings, counts = evaluate_contracts(index, analysis, config)
    report.contract_counts = counts
    for ef in findings:
        if ef.finding.code in _disabled_codes(
            _DISABLE_RE, source_lines, ef.finding.relpath, ef.finding.line
        ):
            report.disabled += 1
            report.contract_counts[ef.finding.code] -= 1
            continue
        lines = source_lines.get(ef.finding.relpath)
        if lines and 1 <= ef.finding.line <= len(lines):
            ef.finding = dataclasses.replace(
                ef.finding, source_line=lines[ef.finding.line - 1].strip()
            )
        report.findings.append(ef)
    return report


def _disabled_codes(
    disable_re: "re.Pattern[str]",
    source_lines: Dict[str, List[str]],
    relpath: str,
    lineno: int,
) -> Set[str]:
    lines = source_lines.get(relpath)
    if not lines or not (1 <= lineno <= len(lines)):
        return set()
    match = disable_re.search(lines[lineno - 1])
    if not match:
        return set()
    codes = {tok.strip() for tok in match.group(1).split(",") if tok.strip()}
    if "all" in codes:
        return set(EFFECT_RULES)
    return codes
