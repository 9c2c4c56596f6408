"""Command line driver: scene files in, verdict reports out.

Verbs map one-to-one onto the pipeline entry points.  Every run emits a
single report on stdout, JSON or an aligned text table by --format, and
with --out also as an atomically written JSON file; stdout is then text
unless --format says otherwise.  Exit codes separate argument problems
(2), missing files (3), schema violations (4), and pipeline failures (5,
with the error name in the report); a verdict such as SUPERSET is data,
not a failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring

from .errors import (SchemaError, SteinerTorelliError, UsageError,
                     WindowTooSmall)
from .exactfield import GF, QQ
from .koszul import (duality_check, green_kp1, green_points_test, koszul_dim,
                     pointset_ideal_window, scene_window)
from .scenes import load_scene
from .steiner import valles_locus, validate_presentation
from .torelli import (PRIMES_DEFAULT, dk_check, dk_presentation,
                      hypothesis_defect, random_point_set,
                      recover_embedding_check,
                      scroll_invariance, tautological_presentation,
                      torelli_check)

# the koszul verb accepts K_{p,q} only when the degrees it reads, q - 1,
# q and q + 1, lie in this window: q in 0..2
KOSZUL_WINDOW = (-1, 3)


# ---- bundle label grammar -------------------------------------------------------


def parse_label_text(text):
    """Accepted label spellings, before scene resolution:

        K, K+A, k+2a, K-A ...  canonical class plus a multiple of A
        O(5), o(-1)            absolute twist on an integer-graded scene
        (1,1)                  bidegree pair on a scroll
        5                      bare integer twist
    """
    s = text.strip().replace(" ", "")
    low = s.lower()
    if low == "k":
        return ("adjoint", 0)
    if low.startswith("k+") or low.startswith("k-"):
        body = low[1:]
        if body.endswith("a"):
            coeff = body[:-1]
            if coeff in ("+", "-"):
                coeff += "1"
            try:
                return ("adjoint", int(coeff))
            except ValueError:
                pass
        raise UsageError(f"cannot parse bundle label {text!r}")
    if low.startswith("o(") and low.endswith(")"):
        try:
            return ("twist", int(low[2:-1]))
        except ValueError as exc:
            raise UsageError(
                f"cannot parse bundle label {text!r}") from exc
    if s.startswith("(") and s.endswith(")"):
        try:
            pair = tuple(int(tok) for tok in s[1:-1].split(","))
        except ValueError as exc:
            raise UsageError(
                f"cannot parse bundle label {text!r}") from exc
        if len(pair) != 2:
            raise UsageError(f"label pairs have two entries, got {s!r}")
        return ("pair", pair)
    try:
        return ("twist", int(s))
    except ValueError as exc:
        raise UsageError(f"cannot parse bundle label {text!r}") from exc


def resolve_label(scene, text):
    """Label text -> the scene's own label value."""
    kind, value = parse_label_text(text)
    if kind == "adjoint":
        return scene.label_add(scene.canonical_label(),
                               scene.label_scale(scene.label_A(), value))
    graded_by_pairs = isinstance(scene.label_A(), tuple)
    if (kind == "pair") != graded_by_pairs:
        raise UsageError(
            f"scene {scene.name!r} grades its bundles by "
            f"{'pairs' if graded_by_pairs else 'integers'}, "
            f"label {text!r} does not")
    return value


def default_b_label(scene):
    """K + (n+1)A, the adjoint twist the recovery theorems ask for."""
    n = scene.dimension
    return scene.label_add(scene.canonical_label(),
                           scene.label_scale(scene.label_A(), n + 1))


# ---- option plumbing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _primes_from(args):
    prime = getattr(args, "prime", None)
    if getattr(args, "primes", None) is not None:
        if prime is not None:
            raise UsageError("give --prime or --primes, not both")
        try:
            primes = tuple(int(tok) for tok in args.primes.split(","))
        except ValueError as exc:
            raise UsageError(
                f"cannot parse prime list {args.primes!r}") from exc
        if len(set(primes)) != len(primes):
            raise UsageError(f"prime list {args.primes!r} repeats a prime")
        return primes
    if prime is not None:
        return (prime,)
    return PRIMES_DEFAULT


def _field_from(args):
    """GF(p) when a prime is requested, exact rationals otherwise."""
    prime = getattr(args, "prime", None)
    return QQ if prime is None else GF(prime)


def _b_label(scene, args):
    if getattr(args, "B", None) is not None:
        return resolve_label(scene, args.B)
    return default_b_label(scene)


def _presentation_for(scene, args, prime):
    """Point sets get the module-of-points presentation, everything else
    the tautological one; returns (presentation, B label or None)."""
    if scene.kind == "point_set":
        if args.B is not None:
            raise UsageError("--B names a line bundle; a point set gets "
                             "the module-of-points presentation")
        return dk_presentation(scene, GF(prime)), None
    b_label = _b_label(scene, args)
    return tautological_presentation(scene, b_label, GF(prime)), b_label


# ---- verb handlers --------------------------------------------------------------


def _run_build(args):
    scene = load_scene(args.scene)
    pres, b_label = _presentation_for(scene, args, args.prime)
    report = {
        "scene": scene.name,
        "B": None if b_label is None else scene.label_str(b_label),
        "prime": args.prime,
        "dims": {"a": pres.dim_u1, "m": pres.dim_v, "b": pres.dim_u0},
        "bundle_rank": pres.bundle_rank,
        "h1_defect": (None if b_label is None else
                      hypothesis_defect(scene, b_label, GF(args.prime))),
        "validation": validate_presentation(pres).to_json_dict(),
    }
    return report


def _run_valles(args):
    scene = load_scene(args.scene)
    pres, b_label = _presentation_for(scene, args, args.prime)
    rep = valles_locus(pres).to_json_dict()
    return {"scene": scene.name,
            "B": None if b_label is None else scene.label_str(b_label),
            **rep}


def _koszul_degrees(q):
    """The window q - 1 .. q + 1 that K_{p,q} reads.  A degree outside
    KOSZUL_WINDOW is refused, the first of q, q + 1, q - 1, the order in
    which koszul_dim reads them."""
    lo, hi = KOSZUL_WINDOW
    for k in (q, q + 1, q - 1):
        if not lo <= k <= hi:
            raise WindowTooSmall(f"degree {k} outside window [{lo}, {hi}]")
    return q - 1, q + 1


def _run_koszul(args):
    scene = load_scene(args.scene)
    field = _field_from(args)
    if scene.kind == "point_set":
        if args.N is not None:
            raise UsageError("--N twists a section module; on a point set "
                             "the koszul verb reads the ideal")
        window = pointset_ideal_window(scene, *_koszul_degrees(args.q),
                                       field)
        n_str = "ideal"
    else:
        n_label = resolve_label(scene, args.N) if args.N is not None else \
            scene.label_scale(scene.label_A(), 0)
        window = scene_window(scene, n_label, *_koszul_degrees(args.q),
                              field)
        n_str = scene.label_str(n_label)
    group = koszul_dim(window, args.p, args.q).to_json_dict()
    return {"scene": scene.name, "N": n_str, **group}


def _run_green(args):
    scene = load_scene(args.scene)
    field = _field_from(args)
    if scene.kind == "point_set":
        rep = green_points_test(scene, field)
    else:
        rep = green_kp1(scene, field)
    return {"scene": scene.name, **rep.to_json_dict()}


def _run_duality(args):
    scene = load_scene(args.scene)
    field = _field_from(args)
    n_label = resolve_label(scene, args.N) if args.N is not None else \
        scene.label_scale(scene.label_A(), 0)
    rep = duality_check(scene, n_label, args.p, args.q, field)
    return {"scene": scene.name, "N": scene.label_str(n_label),
            **rep.to_json_dict()}


def _run_torelli(args):
    scene = load_scene(args.scene)
    b_label = _b_label(scene, args)
    return torelli_check(scene, b_label, _primes_from(args)).to_json_dict()


def _run_recover(args):
    scene = load_scene(args.scene)
    b_label = _b_label(scene, args)
    return recover_embedding_check(scene, b_label, args.prime).to_json_dict()


def _run_dk(args):
    if args.scene is None:
        if args.N is None:
            raise UsageError(
                "dk without a scene file generates points and needs --N")
        if args.primes is not None:
            raise UsageError("generation mode draws and checks at one "
                             "prime; give --prime, not --primes")
        prime = 11 if args.prime is None else args.prime
        points, used = random_point_set(args.N, prime, args.seed)
        rep = dk_check(points, primes=(prime,)).to_json_dict()
        return {"seed": args.seed, "used_seed": used,
                "coordinates": [[int(c) for c in row]
                                for row in points.points],
                **rep}
    if args.N is not None:
        raise UsageError("--N sets the point count in generation mode; "
                         "drop the scene file to generate")
    scene = load_scene(args.scene)
    if scene.kind != "point_set":
        raise UsageError(
            f"dk works on point_set scenes, {args.scene} holds "
            f"{scene.kind!r}")
    return dk_check(scene, _primes_from(args)).to_json_dict()


def _run_scroll_invariance(args):
    scene_x = load_scene(args.scene_x)
    scene_y = load_scene(args.scene_y)
    field = _field_from(args)
    flag = scroll_invariance(scene_x, scene_y, n=args.N, field=field)
    return {"scene_x": scene_x.name, "scene_y": scene_y.name,
            "n": args.N, "invariant": flag}


# ---- parser ---------------------------------------------------------------------


@functools.cache
def build_arg_parser():
    """The command line parser, built once on the first call; parsing
    does not change it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="also write the JSON report here, "
                        "atomically")
    common.add_argument("--format", choices=("json", "text"),
                        help="stdout format")

    parser = _Parser(prog="steinertorelli",
                     description="Steiner bundle Torelli checks, exactly, "
                     "over prime fields and the rationals.")
    sub = parser.add_subparsers(dest="verb", metavar="verb", required=True)

    p = sub.add_parser("build", parents=[common],
                       help="assemble and validate a presentation")
    p.add_argument("scene")
    p.add_argument("--B", help="bundle label, default K+(n+1)A")
    p.add_argument("--prime", type=int, default=5)
    p.set_defaults(handler=_run_build)

    p = sub.add_parser("valles", parents=[common],
                       help="scan P(V)(F_p) for unstable hyperplanes")
    p.add_argument("scene")
    p.add_argument("--B")
    p.add_argument("--prime", type=int, default=5)
    p.set_defaults(handler=_run_valles)

    p = sub.add_parser("koszul", parents=[common],
                       help="dim K_{p,q} on the standard window")
    p.add_argument("scene")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--N", help="twist label, default O")
    p.add_argument("--prime", type=int)
    p.set_defaults(handler=_run_koszul)

    p = sub.add_parser("green", parents=[common],
                       help="minimal-degree / rational-normal-curve verdict")
    p.add_argument("scene")
    p.add_argument("--prime", type=int)
    p.set_defaults(handler=_run_green)

    p = sub.add_parser("duality", parents=[common],
                       help="compare K_{p,q} with its dual group")
    p.add_argument("scene")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--N", help="twist label, default O")
    p.add_argument("--prime", type=int)
    p.set_defaults(handler=_run_duality)

    p = sub.add_parser("torelli", parents=[common],
                       help="unstable locus vs image points, several primes")
    p.add_argument("scene")
    p.add_argument("--B")
    p.add_argument("--prime", type=int)
    p.add_argument("--primes", help="comma separated, default 5,7,11")
    p.set_defaults(handler=_run_torelli)

    p = sub.add_parser("recover", parents=[common],
                       help="trivial-quotient recovery table at one prime")
    p.add_argument("scene")
    p.add_argument("--B")
    p.add_argument("--prime", type=int, default=5)
    p.set_defaults(handler=_run_recover)

    p = sub.add_parser("dk", parents=[common],
                       help="point-set bundle check; generates a certified "
                       "random set when no scene file is given")
    p.add_argument("scene", nargs="?")
    p.add_argument("--N", type=int, help="point count in generation mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime", type=int)
    p.add_argument("--primes")
    p.set_defaults(handler=_run_dk)

    p = sub.add_parser("scroll-invariance", parents=[common],
                       help="byte-identity of two scroll presentations")
    p.add_argument("scene_x")
    p.add_argument("scene_y")
    p.add_argument("--N", type=int, default=1, help="B = K + N*A")
    p.add_argument("--prime", type=int)
    p.set_defaults(handler=_run_scroll_invariance)

    return parser


# ---- emission -------------------------------------------------------------------


def emit(report, fmt):
    if fmt == "json":
        return (_json_text(report) + "\n").encode("utf-8")
    if fmt == "text":
        return ("\n".join(_text_lines(report)) + "\n").encode("utf-8")
    raise UsageError(f"unknown format {fmt!r}")


def _json_text(v, nl="\n"):
    """The text of json.dumps(v, indent=1, ensure_ascii=False), whose
    indenting encoder is pure Python: strings go through json's own
    escaper, a list of plain ints is joined in one call, and any other
    scalar is json.dumps(v), which raises TypeError where json does.  nl
    is the newline and indent of v's own line."""
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = nl + " "
        if {*map(type, v)} == {int}:
            items = map(int.__repr__, v)
        else:
            items = [_json_text(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = nl + " "
        # a key that is not a string is written as json writes it
        return "{" + inner + ("," + inner).join([
            (encode_basestring(k) if isinstance(k, str)
             else json.dumps({k: None})[1:-7]) + ": " + _json_text(x, inner)
            for k, x in v.items()]) + nl + "}"
    if isinstance(v, str):
        return encode_basestring(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if type(v) is int:
        return int.__repr__(v)
    return json.dumps(v)


def _scalar_text(v):
    if v is None:
        return "-"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_scalar_text(x) for x in v) + "]"
    return str(v)


def _cell_text(v):
    # tables stay readable: nested row lists are summarized, the JSON
    # report keeps the full data
    if isinstance(v, list) and v and all(isinstance(x, dict) for x in v):
        return f"[{len(v)} rows]"
    return _scalar_text(v)


def _table_lines(name, rows):
    cols = list(dict.fromkeys(c for row in rows for c in row))
    cells = [[_cell_text(row.get(c)) for c in cols] for row in rows]
    widths = [max(len(c), *(len(line[i]) for line in cells))
              for i, c in enumerate(cols)]
    yield f"{name}:"
    yield "  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    for line in cells:
        yield "  " + "  ".join(x.ljust(w) for x, w in zip(line, widths))


def _text_lines(report):
    flat = {k: v for k, v in report.items()
            if not (isinstance(v, list) and v
                    and all(isinstance(x, dict) for x in v))
            and not isinstance(v, dict)}
    width = max((len(k) for k in flat), default=0)
    for k, v in report.items():
        if isinstance(v, dict):
            yield f"{k}:"
            inner = max((len(j) for j in v), default=0)
            for j, w in v.items():
                yield f"  {j.ljust(inner)}  {_scalar_text(w)}"
        elif isinstance(v, list) and v and all(isinstance(x, dict)
                                               for x in v):
            yield from _table_lines(k, v)
        else:
            yield f"{k.ljust(width)}  {_scalar_text(v)}"


def _write_atomic(path, data):
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _deliver(report, args):
    fmt = args.format or ("text" if args.out else "json")
    data = emit(report, fmt)
    if args.out:
        _write_atomic(args.out,
                      data if fmt == "json" else emit(report, "json"))
    sys.stdout.buffer.write(data)
    sys.stdout.flush()


# ---- entry point ----------------------------------------------------------------


def main(argv=None):
    try:
        args = build_arg_parser().parse_args(argv)
        report = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 3
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 4
    except SteinerTorelliError as exc:
        _deliver({"error": type(exc).__name__, "message": str(exc)}, args)
        return 5
    _deliver(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
