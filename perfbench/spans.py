"""Tracing from outside the engine: spans and counters at module boundaries.

:func:`install` replaces public functions of ``normcert`` modules with
wrappers that record a span (name, start, end, parent, request id), and
wraps a few hot methods with counters only, since a span per call would
cost more than the call.  Nothing under ``src/`` changes: every module
binding of a wrapped function is rebound, which also covers names brought
in with ``from .x import f``.

Spans stay in memory until :meth:`Tracer.write` at the end of a pass.
Every ``*_s`` layer metric is the summed self time of that layer's spans:
duration minus the part of it covered by child spans.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter

# module -> {public function: category}
SPANNED = {
    "groups": dict.fromkeys(
        ("build_group", "cyclic", "dihedral", "symmetric", "quaternion",
         "direct_product", "from_table"), "groups.build") | {"subgroup_lattice": "groups.lattice"},
    "transfers": {"close_transfer_system": "transfers.close",
                  "enumerate_transfer_systems": "transfers.enumerate"},
    "chromatic": {"validate_vanishing_locus": "chromatic.validate_locus",
                  "heights_to_locus": "chromatic.heights_to_locus"},
    "certify": {"localization_preserves": "certify.decide",
                "norm_preserves_locus": "certify.decide",
                "cross_validate_cyclic": "certify.xval",
                "enumerate_commutative_heights": "certify.ell"},
    "io": dict.fromkeys(("parse_system", "parse_locus", "parse_heights",
                         "parse_heights_inline"), "io.parse")
    | dict.fromkeys(("group_doc", "lattice_doc", "system_doc", "enumeration_doc",
                     "locus_doc", "locus_validation_doc", "heights_doc", "decision_doc",
                     "cross_validation_doc", "heights_enumeration_doc"), "io.doc")
    | {"digest": "io.digest"},
    "cli": {"main": "cli.main"},
    "dot": {"transfer_poset_dot": "dot.transfer_poset", "lattice_dot": "dot.other",
            "prime_poset_dot": "dot.other"},
}

# Per-layer metrics: name -> (unit, better).  The order is the report order.
LAYER_METRICS = {
    "groups.build_s": ("s", "lower"),
    "groups.lattice_s": ("s", "lower"),
    "groups.subgroups": ("count", "lower"),
    "groups.dc_blocks_calls": ("count", "lower"),
    "groups.dc_blocks_distinct": ("count", "lower"),
    "groups.dc_hit_ratio": ("ratio", "higher"),
    "groups.members_calls": ("count", "lower"),
    "transfers.close_calls": ("count", "lower"),
    "transfers.close_s": ("s", "lower"),
    "transfers.enumerate_self_s": ("s", "lower"),
    "transfers.systems": ("count", "lower"),
    "chromatic.validate_locus_s": ("s", "lower"),
    "chromatic.heights_to_locus_calls": ("count", "lower"),
    "chromatic.height_vectors_checked": ("count", "lower"),
    "certify.decide_s": ("s", "lower"),
    "certify.pairs_checked": ("count", "lower"),
    "certify.cut_checks": ("count", "lower"),
    "certify.cut_hits": ("count", "higher"),
    "certify.witnesses": ("count", "lower"),
    "certify.norm_checks": ("count", "lower"),
    "certify.xval_s": ("s", "lower"),
    "certify.ell_s": ("s", "lower"),
    "certify.ell_scanned": ("count", "lower"),
    "certify.ell_emitted": ("count", "lower"),
    "certify.cache_entries": ("count", "lower"),
    "io.parse_s": ("s", "lower"),
    "io.doc_s": ("s", "lower"),
    "io.digest_s": ("s", "lower"),
    "io.bytes_out": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "dot.transfer_poset_s": ("s", "lower"),
}

_SELF_TIME = {
    "groups.build_s": "groups.build",
    "groups.lattice_s": "groups.lattice",
    "transfers.close_s": "transfers.close",
    "transfers.enumerate_self_s": "transfers.enumerate",
    "chromatic.validate_locus_s": "chromatic.validate_locus",
    "certify.decide_s": "certify.decide",
    "certify.xval_s": "certify.xval",
    "certify.ell_s": "certify.ell",
    "io.parse_s": "io.parse",
    "io.doc_s": "io.doc",
    "io.digest_s": "io.digest",
    "cli.self_s": "cli.main",
    "dot.transfer_poset_s": "dot.transfer_poset",
}


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    ``spans`` holds ``(name, start, end, parent)`` rows, parent being the
    index of the enclosing span or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.categories: list[str] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.request = None
        self._dc_seen = weakref.WeakKeyDictionary()

    def _spanned(self, name: str, category: str, fn, after=None):
        spans, cats, stack, active = self.spans, self.categories, self.stack, self.active

        def wrapper(*args, **kwargs):
            sid = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(row)
            cats.append(category)
            stack.append(sid)
            active[category] += 1
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                active[category] -= 1
                stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap the boundaries of every ``normcert`` layer for this process."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for short, table in SPANNED.items():
            home = sys.modules[f"{package.__name__}.{short}"]
            for fname, category in table.items():
                original = getattr(home, fname)
                _rebind(modules, original, self._spanned(
                    f"{short}.{fname}", category, original, _AFTER.get(fname)))
        self._install_counters(package, modules)

    def _install_counters(self, package, modules) -> None:
        groups = sys.modules[f"{package.__name__}.groups"]
        chromatic = sys.modules[f"{package.__name__}.chromatic"]
        counts, active, seen = self.counts, self.active, self._dc_seen

        members = groups.Subgroup.members.fget

        def counted_members(sub):
            counts["groups.members_calls"] += 1
            return members(sub)

        groups.Subgroup.members = property(counted_members)

        blocks = groups.SubgroupLattice.double_coset_blocks

        def counted_blocks(lattice, kid, hid, aid):
            counts["groups.dc_blocks_calls"] += 1
            keys = seen.setdefault(lattice, set())
            if (kid, hid, aid) not in keys:
                keys.add((kid, hid, aid))
                counts["groups.dc_blocks_distinct"] += 1
            return blocks(lattice, kid, hid, aid)

        groups.SubgroupLattice.double_coset_blocks = counted_blocks

        contains = chromatic.VanishingLocus.contains

        def counted_contains(locus, *args):
            hit = contains(locus, *args)
            if active["certify.decide"]:
                counts["certify.cut_checks"] += 1
                counts["certify.cut_hits"] += hit
            return hit

        chromatic.VanishingLocus.contains = counted_contains

        validate = chromatic.validate_height_vector

        def counted_validate(v):
            counts["chromatic.height_vectors_checked"] += 1
            if active["certify.ell"]:
                counts["certify.ell_scanned"] += 1
            return validate(v)

        _rebind(modules, validate, counted_validate)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")

    def layer_metrics(self, cache_entries: int, bytes_out: int) -> dict[str, float]:
        by_category: Counter = Counter()
        for cat, dt in zip(self.categories, self_times(self.spans)):
            by_category[cat] += dt
        per_name = Counter(row[0] for row in self.spans)
        c = self.counts
        calls = c["groups.dc_blocks_calls"]
        out = {metric: by_category[cat] for metric, cat in _SELF_TIME.items()}
        out.update({
            "groups.subgroups": c["groups.subgroups"],
            "groups.dc_blocks_calls": calls,
            "groups.dc_blocks_distinct": c["groups.dc_blocks_distinct"],
            "groups.dc_hit_ratio": 1 - c["groups.dc_blocks_distinct"] / calls if calls else 0.0,
            "groups.members_calls": c["groups.members_calls"],
            "transfers.close_calls": per_name["transfers.close_transfer_system"],
            "transfers.systems": c["transfers.systems"],
            "chromatic.heights_to_locus_calls": per_name["chromatic.heights_to_locus"],
            "chromatic.height_vectors_checked": c["chromatic.height_vectors_checked"],
            "certify.pairs_checked": c["certify.pairs_checked"],
            "certify.cut_checks": c["certify.cut_checks"],
            "certify.cut_hits": c["certify.cut_hits"],
            "certify.witnesses": c["certify.witnesses"],
            "certify.norm_checks": per_name["certify.norm_preserves_locus"],
            "certify.ell_scanned": c["certify.ell_scanned"],
            "certify.ell_emitted": c["certify.ell_emitted"],
            "certify.cache_entries": cache_entries,
            "io.bytes_out": bytes_out,
        })
        return {name: out[name] for name in LAYER_METRICS}


def _rebind(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _count_decision(counts, result, pairs: int) -> None:
    counts["certify.pairs_checked"] += pairs
    counts["certify.witnesses"] += len(result.witnesses)


_AFTER = {
    "subgroup_lattice": lambda c, a, r: c.update({"groups.subgroups": len(r)}),
    "enumerate_transfer_systems": lambda c, a, r: c.update({"transfers.systems": len(r.systems)}),
    "localization_preserves": lambda c, a, r: _count_decision(c, r, len(a[1].pairs)),
    "norm_preserves_locus": lambda c, a, r: _count_decision(c, r, 1),
    "enumerate_commutative_heights": lambda c, a, r: c.update({"certify.ell_emitted": len(r)}),
}
