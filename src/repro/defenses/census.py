"""The survivability census — surviving attack surface per defense.

Two drivers:

* :func:`defense_census` — filtering only: how many of an image's
  winnowed gadgets survive each policy (``nfl census --defenses``, the
  CI smoke).  Pools come from :mod:`repro.pipeline`, so a shared
  :class:`~repro.pipeline.cache.ResultCache` makes the per-policy cost
  one list scan.
* :func:`defense_matrix_entry` — the full planner per policy: surviving
  pool plus *validated-under-enforcement* payload counts, the rows of
  ``BENCH_defenses.json``.  Policies share the planner's extraction and
  winnowing through the same cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..binfmt.image import BinaryImage
from ..gadgets.extract import ExtractionConfig, ExtractionStats
from ..gadgets.subsumption import SubsumptionStats
from ..obs import span
from ..pipeline.cache import ResultCache
from ..pipeline.parallel import extract_pool, winnow_pool
from .cfi import CFITargets
from .policy import CFIMode, DefensePolicy, POLICIES, parse_policy
from .survive import SurvivalCensus, filter_pool

#: Schema tag for the ``BENCH_defenses.json`` artifact.
BENCH_DEFENSES_SCHEMA = "nfl-bench-defenses-v1"

_ENTRY_REQUIRED_KEYS = {
    "program",
    "config",
    "policy",
    "pool_size",
    "surviving",
    "survival_ratio",
    "payloads",
    "goals_succeeded",
    "goals_attempted",
    "success_rate",
    "blocked_by_defense",
    "per_goal",
}


def resolve_policies(
    specs: Optional[Sequence[object]] = None,
) -> List[DefensePolicy]:
    """Normalize a mixed list of names/policies (default: the registry's
    census set, see :data:`~repro.defenses.policy.DEFAULT_CENSUS_POLICIES`)."""
    from .policy import DEFAULT_CENSUS_POLICIES

    if specs is None:
        specs = DEFAULT_CENSUS_POLICIES
    resolved: List[DefensePolicy] = []
    for spec in specs:
        if isinstance(spec, DefensePolicy):
            resolved.append(spec)
        else:
            resolved.append(parse_policy(str(spec)))
    return resolved


def defense_census(
    image: BinaryImage,
    policies: Optional[Sequence[object]] = None,
    *,
    extraction: Optional[ExtractionConfig] = None,
    cache: Optional[ResultCache] = None,
) -> Dict:
    """Surviving-gadget counts per policy for one image (no planning)."""
    extraction = extraction or ExtractionConfig()
    resolved = resolve_policies(policies)
    ex_stats = ExtractionStats()
    sub_stats = SubsumptionStats()
    with span("defense.census") as sp:
        image_bytes = image.to_bytes() if cache is not None else None
        pool = extract_pool(image, extraction, ex_stats, cache=cache, image_bytes=image_bytes)
        deduped = winnow_pool(
            pool,
            sub_stats,
            cache=cache,
            image_bytes=image_bytes,
            config=extraction,
        )
        targets = None
        if any(p.cfi is not CFIMode.OFF for p in resolved):
            targets = CFITargets.build(image)
        censuses: List[SurvivalCensus] = []
        for policy in resolved:
            census = SurvivalCensus(policy=policy.name)
            filter_pool(policy, deduped, targets=targets, census=census)
            censuses.append(census)
        sp.add("policies", len(resolved))
        sp.add("pool", len(deduped))
    return {
        "pool_size": len(deduped),
        "gadgets_total": len(pool),
        "policies": [c.to_dict() for c in censuses],
    }


def defense_matrix_entry(
    image: BinaryImage,
    policies: Sequence[DefensePolicy],
    *,
    program: str = "",
    config: str = "",
    goals=None,
    extraction: Optional[ExtractionConfig] = None,
    planner=None,
    cache: Optional[ResultCache] = None,
) -> List[Dict]:
    """One benchmark row per policy: surviving pool + planner outcomes.

    Each policy runs the full :class:`~repro.planner.GadgetPlanner`
    with that policy enforced during validation; a shared ``cache``
    keeps extraction and winnowing to a single cold run.
    """
    from ..planner import GadgetPlanner

    rows: List[Dict] = []
    for policy in policies:
        planner_obj = GadgetPlanner(
            image,
            extraction=extraction,
            planner=planner,
            cache=cache,
            defense=policy,
        )
        report = planner_obj.run(goals)
        surviving = (
            report.gadgets_surviving
            if report.gadgets_surviving is not None
            else report.gadgets_after_subsumption
        )
        attempted = len(report.per_goal)
        succeeded = sum(1 for count in report.per_goal.values() if count > 0)
        row = {
            "program": program,
            "config": config,
            "policy": policy.name,
            "pool_size": report.gadgets_after_subsumption,
            "surviving": surviving,
            "survival_ratio": round(
                surviving / report.gadgets_after_subsumption, 4
            )
            if report.gadgets_after_subsumption
            else 0.0,
            "payloads": report.total_payloads,
            "goals_attempted": attempted,
            "goals_succeeded": succeeded,
            "success_rate": round(succeeded / attempted, 4) if attempted else 0.0,
            "blocked_by_defense": report.blocked_by_defense,
            "leaks_used": report.leaks_used,
            "per_goal": dict(sorted(report.per_goal.items())),
        }
        if report.survival is not None:
            row["killed_cfi"] = report.survival.killed_cfi
            row["killed_shadow_stack"] = report.survival.killed_shadow_stack
        rows.append(row)
    return rows


def validate_defense_matrix(doc: Dict) -> None:
    """Schema check for a ``BENCH_defenses.json`` document (raises)."""
    if doc.get("schema") != BENCH_DEFENSES_SCHEMA:
        raise ValueError(f"bad schema tag: {doc.get('schema')!r}")
    for key in ("programs", "configs", "policies", "entries"):
        if not isinstance(doc.get(key), list) or not doc[key]:
            raise ValueError(f"missing or empty field: {key}")
    known = set(POLICIES)
    for entry in doc["entries"]:
        missing = _ENTRY_REQUIRED_KEYS - set(entry)
        if missing:
            raise ValueError(f"entry missing keys: {sorted(missing)}")
        if entry["policy"] not in known and "+" not in entry["policy"]:
            raise ValueError(f"unknown policy in entry: {entry['policy']!r}")
        if not 0 <= entry["surviving"] <= entry["pool_size"]:
            raise ValueError(
                f"surviving {entry['surviving']} out of range for pool "
                f"{entry['pool_size']}"
            )
        if entry["goals_succeeded"] > entry["goals_attempted"]:
            raise ValueError("goals_succeeded exceeds goals_attempted")


def format_defense_matrix(doc: Dict) -> str:
    """Fixed-width table for a ``BENCH_defenses.json`` document."""
    header = (
        f"{'program':<14}{'config':<10}{'policy':<14}{'surviving':>10}"
        f"{'of':>7}{'payloads':>9}{'blocked':>8}{'leaks':>6}"
    )
    lines = [header, "-" * len(header)]
    for entry in doc["entries"]:
        lines.append(
            f"{entry['program']:<14}{entry['config']:<10}{entry['policy']:<14}"
            f"{entry['surviving']:>10}{entry['pool_size']:>7}"
            f"{entry['payloads']:>9}{entry['blocked_by_defense']:>8}"
            f"{entry.get('leaks_used', 0):>6}"
        )
    return "\n".join(lines)


def format_defense_census(doc: Dict, title: str = "") -> str:
    """Fixed-width table for one image's :func:`defense_census` result."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"{'policy':<14}{'surviving':>10}{'of':>7}{'ratio':>8}"
        f"{'cfi-killed':>12}{'shadow-killed':>15}"
    )
    for row in doc["policies"]:
        lines.append(
            f"{row['policy']:<14}{row['surviving']:>10}{row['pool_size']:>7}"
            f"{row['survival_ratio']:>8.2f}{row['killed_cfi']:>12}"
            f"{row['killed_shadow_stack']:>15}"
        )
    return "\n".join(lines)
