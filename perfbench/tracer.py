"""Span tracer for the amalgam-lab layers, installed from outside ``src/``.

``Tracer.install()`` replaces each public layer function listed in
``TARGETS`` by a timing wrapper: in its defining module (or class) and in
every ``amalgam_lab`` module that imported it by name, since a module such
as ``cli`` binds ``ends_estimate`` at import and would otherwise keep calling
the unwrapped original.  A target that no longer exists raises
``TracerError``, so a rename fails the traced run instead of reporting zeros.

Three kinds of target:

* ``SPAN``: every call is kept as a span record (id, name, start, end,
  parent id) in memory and written by ``dump()`` when the process ends.
* ``AGG``: hot functions (millions of calls); only per-name aggregates are
  kept, but their time is still charged to the enclosing span, so its self
  time stays right.
* ``COUNT``: table lookups; calls are counted and nothing is timed.

Inclusive time ("incl") is a span's duration.  Self time is inclusive time
minus the time covered by traced child calls.  Multiplies are counted at
``FundamentalGroup.multiply`` and added to every enclosing span on return, so
``wordlen.multiplies`` is the number of BFS-fallback products run under
``wordlen``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPAN, AGG, COUNT = "span", "agg", "count"

# (module, attribute path, kind); a path "Class.method" patches the class.
TARGETS = (
    ("dsl", "parse_gog", SPAN),
    ("gog", "spanning_tree", SPAN),
    ("fundgroup", "FundamentalGroup.generating_set", SPAN),
    ("fundgroup", "FundamentalGroup.word_metric_ball", SPAN),
    ("fundgroup", "FundamentalGroup.multiply", AGG),
    ("fundgroup", "FundamentalGroup.invert", AGG),
    ("fundgroup", "FundamentalGroup.dist", AGG),
    ("fundgroup", "FundamentalGroup.wordlen", AGG),
    ("separation", "ends_estimate", SPAN),
    ("separation", "verify_K_construction", SPAN),
    ("separation", "r_components", SPAN),
    ("separation", "thicken", SPAN),
    ("separation", "set_distance", AGG),
    ("separation", "coset_elements_in_ball", AGG),
    ("bass_serre", "TreeBall.__init__", SPAN),
    ("boundary", "boundary_approx", SPAN),
    ("boundary", "limit_set_family", SPAN),
    ("boundary", "amalgam_check", SPAN),
    ("boundary", "cantor_check", SPAN),
    ("boundary", "branch_density_check", SPAN),
    ("boundary", "BoundaryApprox.basis_members", AGG),
    ("jsonio", "dumps", SPAN),
    ("groups", "FiniteGroup.mul", COUNT),
    ("backends", "GroupBackend.mul", COUNT),
)

MULTIPLY = "fundgroup.multiply"
# multiply timings are bucketed by the total syllable length of both operands
SYLLABLE_BUCKETS = ((4, "syl_1-4"), (8, "syl_5-8"), (16, "syl_9-16"), (None, "syl_17-up"))


def empty_stat() -> dict:
    """Aggregates of one traced name; buckets map label -> [calls, seconds]."""
    return {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "multiplies": 0, "points": 0,
            "elements": 0, "vertices": 0, "bytes": 0, "max_value": 0,
            "buckets": {label: [0, 0.0] for _, label in SYLLABLE_BUCKETS}}


class TracerError(RuntimeError):
    """A traced target is missing: the program changed under the benchmark."""


def _bucket(syllables: int) -> str:
    return next(label for top, label in SYLLABLE_BUCKETS if top is None or syllables <= top)


class _Frame:
    __slots__ = ("name", "span_id", "start", "child_s", "multiplies")

    def __init__(self, name: str, span_id: int, start: float):
        self.name = name
        self.span_id = span_id
        self.start = start
        self.child_s = 0.0
        self.multiplies = 0


class Tracer:
    """In-memory spans and per-name aggregates for one traced process."""

    def __init__(self):
        self.stack: list[_Frame] = [_Frame("root", 0, time.perf_counter())]
        self.spans: list[tuple] = []
        self.stats: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # --- aggregation ---------------------------------------------------------

    def stat(self, name: str) -> dict:
        if name not in self.stats:
            self.stats[name] = empty_stat()
        return self.stats[name]

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, self._next_id, time.perf_counter())
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, keep_span: bool) -> dict:
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1]
        incl = end - frame.start
        parent.child_s += incl
        parent.multiplies += frame.multiplies
        st = self.stat(frame.name)
        st["calls"] += 1
        st["incl_s"] += incl
        st["self_s"] += incl - frame.child_s
        st["multiplies"] += frame.multiplies
        if keep_span:
            self.spans.append((frame.span_id, frame.name, frame.start, end, parent.span_id))
        return st

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        if kind == COUNT:
            self.counts[name] = 0
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        tracer = self
        keep_span = kind == SPAN
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                st = tracer._exit(frame, keep_span)
            if after is not None:
                after(st, frame, args, result)
            return result
        return traced

    def _wrap_multiply(self, fn):
        tracer = self
        stack = self.stack

        @functools.wraps(fn)
        def multiply(fg, x, y):
            start = time.perf_counter()
            result = fn(fg, x, y)
            dt = time.perf_counter() - start
            parent = stack[-1]
            parent.child_s += dt
            parent.multiplies += 1
            st = tracer.stat(MULTIPLY)
            st["calls"] += 1
            st["incl_s"] += dt
            st["self_s"] += dt
            st["multiplies"] += 1
            b = st["buckets"][_bucket(len(x.tail) + len(y.tail))]
            b[0] += 1
            b[1] += dt
            return result
        return multiply

    def install(self):
        """Patch every target; raise TracerError if one cannot be found."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "amalgam_lab" or name.startswith("amalgam_lab.")}
        for module, path, kind in TARGETS:
            mod = mods.get(f"amalgam_lab.{module}")
            if mod is None:
                raise TracerError(f"module amalgam_lab.{module} is not loaded")
            name = _short(f"{module}.{path.removesuffix('.__init__')}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name, None)
                orig = vars(cls).get(attr) if isinstance(cls, type) else None
                if not callable(orig):
                    raise TracerError(f"amalgam_lab.{module}.{path} does not exist")
                wrapped = (self._wrap_multiply(orig) if name == MULTIPLY
                           else self._wrap(name, orig, kind))
                self._patch(cls, attr, orig, wrapped)
                continue
            orig = getattr(mod, path, None)
            if not callable(orig):
                raise TracerError(f"amalgam_lab.{module}.{path} does not exist")
            wrapped = self._wrap(name, orig, kind)
            for other in mods.values():
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        self._patch(other, attr, orig, wrapped)

    def _patch(self, owner, attr: str, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def dump(self, path: str):
        """Write the spans and aggregates of this process as one JSON file."""
        with open(path, "w") as fh:
            json.dump({"span_fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans,
                       "stats": self.stats,
                       "counts": self.counts}, fh)


def _short(name: str) -> str:
    """fundgroup.FundamentalGroup.dist -> fundgroup.dist: FundamentalGroup
    methods are reported under their module, as the layer they belong to."""
    parts = name.split(".")
    if parts[:2] == ["fundgroup", "FundamentalGroup"]:
        return f"fundgroup.{parts[2]}"
    return name


# --- per-target extras, recorded after a call returns ------------------------


def _after_r_components(st, frame, args, result):
    st["points"] += len(args[0])


def _after_wordlen(st, frame, args, result):
    st["max_value"] = max(st["max_value"], result)


def _after_word_metric_ball(st, frame, args, result):
    if frame.multiplies:  # a cached ball costs nothing and builds nothing
        st["elements"] += len(result)


def _after_tree_ball(st, frame, args, result):
    st["vertices"] += len(args[0].vertices)


def _after_dumps(st, frame, args, result):
    st["bytes"] += len(result.encode())


_AFTER = {
    "separation.r_components": _after_r_components,
    "fundgroup.wordlen": _after_wordlen,
    "fundgroup.word_metric_ball": _after_word_metric_ball,
    "bass_serre.TreeBall": _after_tree_ball,
    "jsonio.dumps": _after_dumps,
}
