"""Per-layer timing from outside the package.

The package's modules import names at load time (`from .exactfield import
rank` in koszul, for instance), so a name is wrapped in every module that
holds it, which is where its caller looks it up.  Methods are wrapped on
their class.  Each wrapped call is a span; a span's self time is its
duration minus that of its child spans, and that self time is charged to
the layer (module) of the wrapped function.  Spans of one pass can be kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("exactfield", "polyalg", "scenes", "steiner", "koszul", "torelli",
          "cli")

SCENE_CLASSES = ("P1Series", "CompleteIntersection", "MonomialVariety",
                 "ScrollCurve", "PointSet")


def _cells(m):
    return m.nrows * m.ncols


def _arg(call, index, name):
    """An argument of a traced call, passed by position or by keyword."""
    args, kwargs = call
    return args[index] if len(args) > index else kwargs[name]


def _is_prime_field(m):
    return type(m.field).__name__ == "PrimeField"


def _rref_done(tr, call, result, dur):
    m = _arg(call, 0, "m")
    tr.add("exactfield.rref_gf_s" if _is_prime_field(m)
           else "exactfield.rref_qq_s", dur)
    tr.add("exactfield.rref_calls", 1)
    tr.add("exactfield.rref_cells", _cells(m))


def _matrix_done(tr, call, result, dur):
    tr.add("exactfield.matrix_new_s", dur)
    tr.add("exactfield.matrix_new_cells", _cells(_arg(call, 0, "self")))


def _validate_done(tr, call, result, dur):
    tr.add("steiner.validate_s", dur)
    if result is not None:
        tr.add("steiner.fibers_scanned", result.fibers_scanned)


def _valles_done(tr, call, result, dur):
    tr.add("steiner.valles_s", dur)
    if result is not None:
        tr.add("steiner.hyperplanes_scanned", result.scanned)
        tr.add("steiner.unstable_found", len(result.unstable))


def _recover_done(tr, call, result, dur):
    tr.add("steiner.recover_s", dur)
    tr.add("steiner.recover_calls", 1)


def _differential_done(tr, call, result, dur):
    tr.add("koszul.differential_s", dur)
    if result is not None:
        tr.add("koszul.differential_cells", _cells(result))


def _enumerate_done(tr, call, result, dur):
    tr.add("scenes.enumerate_points_s", dur)
    if result is not None:
        tr.add("scenes.points_enumerated", len(result.records))


def _presentation_done(tr, call, result, dur):
    tr.add("torelli.presentation_s", dur)
    tr.add("torelli.presentations_built", 1)


def _draw_done(tr, call, result, dur):
    tr.add("torelli.random_point_set_s", dur)
    if result is not None:
        tr.add("torelli.random_point_set_draws",
               result[1] - _arg(call, 2, "seed") + 1)


def _emit_done(tr, call, result, dur):
    if result is not None:
        tr.add("cli.report_bytes", len(result))


def _timer(metric):
    return lambda tr, call, result, dur: tr.add(metric, dur)


def _counter(metric):
    return lambda tr, call, result, dur: tr.add(metric, 1)


# (module, function) -> what a finished call adds to the metrics.  The
# functions without a hook still get spans, so their self time is charged
# to their own layer instead of their caller's.
FUNCTIONS = {
    ("exactfield", "rref"): _rref_done,
    ("exactfield", "rank_kernel"): None,
    ("exactfield", "left_kernel"): None,
    ("exactfield", "span_reduction"): None,
    ("scenes", "load_scene"): _timer("scenes.load_s"),
    ("steiner", "validate_presentation"): _validate_done,
    ("steiner", "valles_locus"): _valles_done,
    ("steiner", "recover_section_point"): _recover_done,
    ("koszul", "scene_window"): _timer("koszul.window_s"),
    ("koszul", "pointset_ideal_window"): _timer("koszul.window_s"),
    ("koszul", "koszul_differential"): _differential_done,
    ("koszul", "koszul_dim"): _counter("koszul.dim_calls"),
    ("koszul", "duality_check"): None,
    ("koszul", "green_kp1"): None,
    ("koszul", "green_points_test"): None,
    ("torelli", "tautological_presentation"): _presentation_done,
    ("torelli", "dk_presentation"): _presentation_done,
    ("torelli", "torelli_check"): None,
    ("torelli", "dk_check"): None,
    ("torelli", "recover_embedding_check"): None,
    ("torelli", "scroll_invariance"): None,
    ("torelli", "random_point_set"): _draw_done,
    ("cli", "main"): None,
    ("cli", "emit"): _emit_done,
}

METHODS = {
    ("exactfield", "Matrix", "__post_init__"): _matrix_done,
    ("polyalg", "GradedQuotientRing", "piece"): _timer("polyalg.piece_s"),
    ("polyalg", "GradedQuotientRing", "multiplication"):
        _timer("polyalg.multiplication_s"),
    ("scenes", "PointSet", "in_general_position"):
        _timer("scenes.general_position_s"),
    ("scenes", "PointSet", "evaluation_matrix"): None,
}
for _cls in SCENE_CLASSES:
    METHODS[("scenes", _cls, "multiplication_map")] = \
        _timer("scenes.multiplication_map_s")
    METHODS[("scenes", _cls, "enumerate_points")] = _enumerate_done
    METHODS[("scenes", _cls, "evaluation_functional")] = \
        _timer("scenes.evaluation_functional_s")
    METHODS[("scenes", _cls, "section_space")] = None

# self time of these spans, summed, is a metric of its own
SELF_METRICS = {
    "torelli.torelli_check": "torelli.check_self_s",
    "torelli.dk_check": "torelli.check_self_s",
    "torelli.recover_embedding_check": "torelli.check_self_s",
    "torelli.scroll_invariance": "torelli.check_self_s",
    "cli.main": "cli.main_self_s",
}

TIME_METRICS = (
    "steiner.validate_s", "steiner.valles_s", "steiner.recover_s",
    "exactfield.rref_qq_s", "exactfield.rref_gf_s",
    "exactfield.matrix_new_s", "koszul.window_s", "koszul.differential_s",
    "polyalg.piece_s", "polyalg.multiplication_s", "scenes.load_s",
    "scenes.multiplication_map_s", "scenes.enumerate_points_s",
    "scenes.evaluation_functional_s", "scenes.general_position_s",
    "torelli.presentation_s", "torelli.check_self_s",
    "torelli.random_point_set_s", "cli.main_self_s",
) + tuple(f"{layer}.self_s" for layer in LAYERS)

COUNT_METRICS = (
    "steiner.fibers_scanned", "steiner.hyperplanes_scanned",
    "steiner.unstable_found", "steiner.recover_calls",
    "exactfield.rref_calls", "exactfield.rref_cells",
    "exactfield.matrix_new_cells", "koszul.differential_cells",
    "koszul.dim_calls", "scenes.points_enumerated",
    "torelli.presentations_built", "torelli.random_point_set_draws",
)

BYTE_METRICS = ("cli.report_bytes",)

# throughput metrics: (name, work counter, time metric)
RATE_METRICS = (
    ("steiner.fibers_per_s", "steiner.fibers_scanned", "steiner.validate_s"),
    ("steiner.hyperplanes_per_s", "steiner.hyperplanes_scanned",
     "steiner.valles_s"),
)


class Tracer:
    def __init__(self, modules):
        self.modules = modules          # layer name -> module object
        self.stack = []
        self.totals = defaultdict(float)
        self.spans = None               # a list while spans are recorded
        self.saved = []

    def add(self, metric, value):
        self.totals[metric] += value

    def reset(self, keep_spans=False):
        self.totals = defaultdict(float)
        self.spans = [] if keep_spans else None

    def snapshot(self):
        return dict(self.totals)

    # -- installation -------------------------------------------------------

    def install(self):
        for (layer, name), done in FUNCTIONS.items():
            orig = getattr(self.modules[layer], name)
            wrapper = self._wrap(orig, f"{layer}.{name}", layer, done)
            for mod in self.modules.values():
                if getattr(mod, name, None) is orig:
                    self.saved.append((mod, name, orig))
                    setattr(mod, name, wrapper)
        for (layer, cls_name, name), done in METHODS.items():
            cls = getattr(self.modules[layer], cls_name)
            if name not in vars(cls):
                continue
            orig = vars(cls)[name]
            self.saved.append((cls, name, orig))
            setattr(cls, name, self._wrap(orig, f"{layer}.{cls_name}.{name}",
                                          layer, done))

    def uninstall(self):
        for owner, name, orig in reversed(self.saved):
            setattr(owner, name, orig)
        self.saved = []

    def _wrap(self, fn, span_name, layer, done):
        tracer = self
        self_key = f"{layer}.self_s"
        own_metric = SELF_METRICS.get(span_name)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            frame = [0.0, None]
            if tracer.spans is not None:
                frame[1] = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                own = dur - frame[0]
                totals = tracer.totals
                totals[self_key] += own
                if own_metric:
                    totals[own_metric] += own
                if done is not None:
                    done(tracer, (args, kwargs), result, dur)
                if frame[1] is not None:
                    parent = stack[-1][1] if stack else None
                    tracer.spans[frame[1]] = (frame[1], parent, span_name,
                                              t0, t1)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        return wrapper

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans or ():
                if span is None:
                    continue
                sid, parent, name, t0, t1 = span
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": t0,
                                     "end": t1}) + "\n")


def layer_metrics(snapshot):
    """Every per-layer metric of one traced pass, with its unit."""
    out = {}
    for name in TIME_METRICS:
        out[name] = (snapshot.get(name, 0.0), "s")
    for name in COUNT_METRICS:
        out[name] = (snapshot.get(name, 0), "count")
    for name in BYTE_METRICS:
        out[name] = (snapshot.get(name, 0), "bytes")
    for name, work, busy in RATE_METRICS:
        t = snapshot.get(busy, 0.0)
        out[name] = (snapshot.get(work, 0) / t if t else 0.0, "1/s")
    return out
