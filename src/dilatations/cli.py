"""Line-oriented instance files and the verification front-end.

Grammar (one declaration per line, `#` comments):

    ring NAME = QQ[a, g]            or  Fp(5)[x, y]
    rels NAME = (p1, p2, ...)       attach relations to a declared ring
    ideal NAME in RING = (g1, ...)
    elem NAME in RING = poly
    center NAME on RING = [IDEAL / a], [IDEAL2 / b], ...
    hom NAME : RING1 -> RING2 = (img1, img2, ...)
    filtration NAME = group SL(2), p=2, N=4, (e, 1), (T, 2)
    request CMD args...

Commands: present, check, iso <name>, oracle, universal, congruence,
rost (see README for per-command arguments).  Reports have a human
section and a machine section of sorted `key: value` lines; exit codes:
0 all certificates pass, 1 a verification failed, 2 parse error,
3 resource limit.

`parse` checks every request's argument count, option keys and integer
values, and every filtration's levels and subgroup names, so a malformed
request or filtration exits 2 before any request runs.  Requests run one
after another, in declaration order; `--jobs N` is accepted and ignored.  The Groebner budgets `--degree-cap` and
`--pair-cap` are one `Limits` value that `parse` gives to every declared
ring and ideal; each ideal derived from them carries it on, so the run
sets no module-level state.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import congruence as cg
from . import oracle as oc
from .algebras import AlgebraHom, PresentedAlgebra
from .dilatation import (
    Center,
    MultiCenter,
    check_exceptional,
    conic_iso,
    base_change_compare,
    detect_common_base,
    dilate,
    forget_map,
    iterate_iso,
    localize_compare,
    monopoly_iso,
    open_immersion_iso,
    two_stage_iso,
    universal_factor,
)
from .groebner import DEFAULT_DEGREE_CAP, DEFAULT_PAIR_CAP, Limits, ResourceLimitError
from .ideals import IdealHandle
from .poly import Field, InputError, PolyRing, Polynomial, QQ, format_poly
from .report import Report
from .rost import RostInput, check_bound, rost_space, rost_subalgebra_check

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InstanceFile:
    def __init__(self, path: str, limits: Limits | None = None):
        self.path = path
        self.limits = limits
        self.rings: dict[str, PresentedAlgebra] = {}
        self.ideals: dict[str, tuple[str, IdealHandle]] = {}
        self.elems: dict[str, tuple[str, Polynomial]] = {}
        self.centers: dict[str, tuple[str, MultiCenter]] = {}
        self.homs: dict[str, AlgebraHom] = {}
        self.filtrations: dict[str, cg.FiltrationSpec] = {}
        self.requests: list[tuple[int, list[str]]] = []


_RING_RE = re.compile(r"(QQ|Fp\((\d+)\))\s*\[([^\]]*)\]\s*\Z")


def _split_top(text: str, sep: str = ","):
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def parse(path: str, limits: Limits | None = None) -> InstanceFile:
    """Read an instance file.  Every declared ring's relations and every
    declared ideal carry `limits` (the default budgets when None), and so
    does every ideal the requests derive from them."""
    inst = InstanceFile(path, limits)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _parse_line(inst, line)
        except ParseError:
            raise
        except (InputError, ValueError, KeyError) as exc:
            raise ParseError(no, str(exc)) from exc
    return inst


def _declared(table: dict, kind: str, name: str):
    """table[name], or InputError naming the undeclared object."""
    if name not in table:
        raise InputError(f"undeclared {kind} {name!r}")
    return table[name]


def _get_ring(inst: InstanceFile, name: str) -> PresentedAlgebra:
    return _declared(inst.rings, "ring", name)


def _parse_line(inst: InstanceFile, line: str) -> None:
    head, _, rest = line.partition(" ")
    rest = rest.strip()
    if head == "ring":
        name, _, spec = rest.partition("=")
        name = name.strip()
        m = _RING_RE.match(spec.strip())
        if not m:
            raise InputError(f"bad ring declaration {spec.strip()!r}")
        field = QQ if m.group(1) == "QQ" else Field(int(m.group(2)))
        names = [v.strip() for v in m.group(3).split(",") if v.strip()]
        ring = PolyRing(field, names)
        inst.rings[name] = PresentedAlgebra(ring, IdealHandle(ring, [], inst.limits))
    elif head == "rels":
        name, _, spec = rest.partition("=")
        alg = _get_ring(inst, name.strip())
        gens = _parse_poly_list(alg.ring, spec.strip())
        inst.rings[name.strip()] = PresentedAlgebra(alg.ring, IdealHandle(alg.ring, gens, inst.limits))
    elif head == "ideal":
        decl, _, spec = rest.partition("=")
        m = re.match(r"(\w+)\s+in\s+(\w+)\s*\Z", decl.strip())
        if not m:
            raise InputError(f"bad ideal declaration {decl.strip()!r}")
        alg = _get_ring(inst, m.group(2))
        gens = _parse_poly_list(alg.ring, spec.strip())
        inst.ideals[m.group(1)] = (m.group(2), IdealHandle(alg.ring, gens, inst.limits))
    elif head == "elem":
        decl, _, spec = rest.partition("=")
        m = re.match(r"(\w+)\s+in\s+(\w+)\s*\Z", decl.strip())
        if not m:
            raise InputError(f"bad elem declaration {decl.strip()!r}")
        alg = _get_ring(inst, m.group(2))
        inst.elems[m.group(1)] = (m.group(2), alg.ring.parse(spec.strip()))
    elif head == "center":
        decl, _, spec = rest.partition("=")
        m = re.match(r"(\w+)\s+on\s+(\w+)\s*\Z", decl.strip())
        if not m:
            raise InputError(f"bad center declaration {decl.strip()!r}")
        alg = _get_ring(inst, m.group(2))
        centers = []
        for part in _split_top(spec.strip()):
            pm = re.match(r"\[\s*(\w+)\s*/\s*(.+?)\s*\]\Z", part)
            if not pm:
                raise InputError(f"bad center pair {part!r}")
            iname = pm.group(1)
            if iname not in inst.ideals or inst.ideals[iname][0] != m.group(2):
                raise InputError(f"undeclared ideal {iname!r} on ring {m.group(2)!r}")
            elem_text = pm.group(2)
            if elem_text in inst.elems and inst.elems[elem_text][0] == m.group(2):
                elem = inst.elems[elem_text][1]
            else:
                elem = alg.ring.parse(elem_text)
            centers.append(Center(inst.ideals[iname][1], elem))
        inst.centers[m.group(1)] = (m.group(2), MultiCenter(alg, centers))
    elif head == "hom":
        decl, _, spec = rest.partition("=")
        m = re.match(r"(\w+)\s*:\s*(\w+)\s*->\s*(\w+)\s*\Z", decl.strip())
        if not m:
            raise InputError(f"bad hom declaration {decl.strip()!r}")
        src = _get_ring(inst, m.group(2))
        tgt = _get_ring(inst, m.group(3))
        images = _parse_poly_list(tgt.ring, spec.strip())
        inst.homs[m.group(1)] = AlgebraHom(src, tgt, images)
    elif head == "filtration":
        name, _, spec = rest.partition("=")
        parts = _split_top(spec.strip())
        if not parts or not parts[0].startswith("group"):
            raise InputError("filtration must start with `group GL(n)` or `group SL(n)`")
        gm = re.match(r"group\s+(GL|SL)\((\d+)\)\Z", parts[0].strip())
        if not gm:
            raise InputError(f"bad group {parts[0]!r}")
        spec_g = cg.GroupSpec(gm.group(1), int(gm.group(2)))
        p = n_level = None
        entries = []
        for part in parts[1:]:
            part = part.strip()
            if part.startswith(("p", "N")) and "=" not in part:
                raise InputError(f"filtration field {part!r} needs a value after '='")
            if part.startswith("p"):
                p = int(part.split("=")[1])
            elif part.startswith("N"):
                n_level = int(part.split("=")[1])
            else:
                em = re.match(r"\(\s*([\w(),]+?)\s*,\s*(\d+)\s*\)\Z", part)
                if not em:
                    raise InputError(f"bad filtration entry {part!r}")
                entries.append((em.group(1), int(em.group(2))))
        if p is None or n_level is None:
            raise InputError("filtration needs p=<prime> and N=<level>")
        inst.filtrations[name.strip()] = cg.FiltrationSpec(spec_g, cg.LevelRing(p, n_level), entries)
    elif head == "request":
        args = rest.split()
        _request_args(args)
        inst.requests.append((len(inst.requests) + 1, args))
    else:
        raise InputError(f"unknown declaration {head!r}")


def _parse_poly_list(ring: PolyRing, text: str):
    if not (text.startswith("(") and text.endswith(")")):
        raise InputError(f"expected parenthesized list, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [ring.parse(part) for part in _split_top(inner)]


# ---------------------------------------------------------------------------
# report rendering


def report_poly(f: Polynomial) -> str:
    """Canonical relation print: ascending terms, lowest coefficient
    positive over QQ (an ideal generator is canonical up to sign)."""
    if not f.terms:
        return "0"
    if f.ring.field.is_rational:
        if f.terms[min(f.terms)] < 0:
            f = -f
    return format_poly(f, ascending=True)


class RequestResult:
    def __init__(self, label: str, machine: dict, human: list, ok: bool):
        self.label = label
        self.machine = machine
        self.human = human
        self.ok = ok


def _report_result(label: str, rep: Report, extra: dict | None = None) -> RequestResult:
    machine = {f"{label}.{k}": ("pass" if ok else "fail") for k, ok, _ in rep.clauses}
    machine[label] = "pass" if rep.ok else "fail"
    if extra:
        machine.update(extra)
    human = [f"{label}: {'pass' if rep.ok else 'FAIL'}"]
    for k, d in rep.failures():
        human.append(f"  failed {k}: {d}")
    return RequestResult(label, machine, human, rep.ok)


def _center(inst: InstanceFile, name: str) -> MultiCenter:
    return _declared(inst.centers, "center", name)[1]


def _request_error(args, message: str) -> InputError:
    return InputError(f"request {' '.join(args)}: {message}")


def _int_arg(args, key: str, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise _request_error(args, f"{key} value {text!r} is not an integer") from None


def _int_list(args, key: str, text: str) -> list[int]:
    """The `K=i,j,...` centers a verifier keeps."""
    return [_int_arg(args, key, x) for x in text.split(",")]


def _bound_arg(args, key: str, text: str) -> int:
    """The `bound=` of rost, an integer in [0, 4]."""
    try:
        return check_bound(_int_arg(args, key, text))
    except InputError as exc:
        raise _request_error(args, str(exc)) from None


def _text_arg(args, key: str, text: str) -> str:
    return text


def _index_map(args, key: str, text: str) -> dict[int, int]:
    """The `map=i:k,...` assignment of open-immersion."""
    assign = {}
    for pair in text.split(","):
        if pair:
            i, sep, k = pair.partition(":")
            if not sep:
                raise _request_error(args, f"map entry {pair!r} is not of the form i:k")
            assign[_int_arg(args, key, i)] = _int_arg(args, key, k)
    return assign


# every request: its command words -> (its positional arguments, every
# `key=value` option it takes, each with the parser of its value)
_REQUESTS = {
    "present": (("center",), {}),
    "check": (("center",), {}),
    "iso monopoly": (("center",), {}),
    "iso two-stage": (("center",), {"K": _int_list}),
    "iso localize": (("center",), {}),
    "iso open-immersion": (("center",), {"K": _int_list, "map": _index_map}),
    "iso iterate": (("center",), {"t": _int_arg}),
    "iso conic": (("center",), {}),
    "iso base-change": (("center", "hom"), {}),
    "iso forget": (("center",), {"K": _int_list}),
    "oracle": (("center",), {}),
    "universal": (("center", "hom or `scan`"), {}),
    "congruence iso": (("filtration S", "filtration R"), {}),
    "congruence points": (("filtration",), {}),
    "congruence normalizer": (("filtration",), {"K": _text_arg}),
    "rost": (("ring", "ideal I", "ideal J"), {"bound": _bound_arg}),
}


def _request_args(args) -> tuple[str, list[str], dict]:
    """(command, positional arguments, options) of a request, with its
    argument count, its option keys and its integer values checked:
    `parse` calls it on every request line, so a malformed request fails
    before any request runs.  An option the request does not take, or
    one given twice, is refused; `t` and `bound` are parsed to ints
    (`bound` must lie in [0, 4]), an iso's `K` to a list and `map` to a
    dict, the normalizer's `K` stays text."""
    if not args:
        raise _request_error(args, "missing command")
    cmd = args[0]
    if cmd in ("iso", "congruence"):
        if len(args) < 2:
            raise _request_error(args, "missing verifier")
        if f"{cmd} {args[1]}" not in _REQUESTS:
            raise InputError(f"unknown {cmd} verifier {args[1]!r}")
        cmd = f"{cmd} {args[1]}"
    elif cmd not in _REQUESTS:
        raise InputError(f"unknown request {cmd!r}")
    names, parsers = _REQUESTS[cmd]
    rest = args[len(cmd.split()):]
    pos = [a for a in rest if "=" not in a]
    if len(pos) < len(names):
        raise _request_error(args, f"missing {names[len(pos)]}")
    opts = {}
    for key, _, text in (a.partition("=") for a in rest if "=" in a):
        if key not in parsers:
            raise _request_error(args, f"unknown option {key!r}")
        if key in opts:
            raise _request_error(args, f"repeated option {key!r}")
        opts[key] = parsers[key](args, key, text)
    return cmd, pos, opts


def run_request(inst: InstanceFile, args: list[str], flags) -> RequestResult:
    cmd, pos, opts = _request_args(args)
    if cmd == "present":
        center = _center(inst, pos[0])
        res = dilate(center)
        rels = ", ".join(report_poly(g) for g in res.algebra.relations.groebner())
        machine = {
            "relations": rels,
            "zero_ring": "true" if res.is_zero_ring() else "false",
            "saturation_changed": "true" if res.saturation_changed else "false",
            "variables": ", ".join(res.algebra.ring.names),
        }
        human = [f"present {pos[0]}: A' = {res.algebra!r}"]
        return RequestResult("present", machine, human, True)

    if cmd == "check":
        center = _center(inst, pos[0])
        res = dilate(center)
        if res.is_zero_ring():
            # dilate asserted that f = prod a_i is nilpotent modulo P
            machine = {"zero_ring": "true", "zero_criterion": "pass"}
            return RequestResult("check", machine, ["check: zero ring (asserted)"], True)
        extra = []
        for name in pos[1:]:
            ring_name, poly = _declared(inst.elems, "element", name)
            if ring_name != inst.centers[pos[0]][0]:
                raise InputError(f"element {name!r} lives on ring {ring_name!r}, not the center's ring")
            extra.append(poly)
        rep = check_exceptional(res, extra)
        out = _report_result("check", rep, {"zero_ring": "false"})
        return out

    if cmd.startswith("iso "):
        center = _center(inst, pos[0])
        keep = opts.get("K", [1])
        if cmd == "iso monopoly":
            _, _, rep = monopoly_iso(center)
            return _report_result("monopoly", rep)
        if cmd == "iso two-stage":
            _, rep = two_stage_iso(center, keep)
            return _report_result("two_stage", rep)
        if cmd == "iso localize":
            return _report_result("localize", localize_compare(center))
        if cmd == "iso open-immersion":
            assign = opts.get("map", {})
            return _report_result("open_immersion", open_immersion_iso(center, keep, assign))
        if cmd == "iso iterate":
            det = detect_common_base(center)
            if det is None:
                raise InputError("iterate needs a single-divisor center")
            base, exps = det
            gens = [list(c.ideal.gens) for c in center.centers]
            rep = iterate_iso(center.algebra, base, gens, exps, opts.get("t", 1))
            return _report_result("iterate", rep)
        if cmd == "iso conic":
            return _report_result("conic", conic_iso(center))
        if cmd == "iso base-change":
            hom = _declared(inst.homs, "hom", pos[1])
            return _report_result("base_change", base_change_compare(center, hom))
        _, rep = forget_map(dilate(center), keep)
        return _report_result("forget", rep)

    if cmd == "oracle":
        center = _center(inst, pos[0])
        rep = oc.compare_with_symbolic(center, flags.oracle_size_cap)
        return _report_result("oracle", rep)

    if cmd == "universal":
        center = _center(inst, pos[0])
        if pos[1] == "scan":
            base_ring, _, fc = oc.finite_center(center, flags.oracle_size_cap)
            catalog = [oc.zmod(n) for n in range(1, 13)]
            rep = oc.universal_property_scan(base_ring, fc, catalog)
            return _report_result("universal_scan", rep)
        hom = _declared(inst.homs, "hom", pos[1])
        out = universal_factor(center, hom)
        if out.refused:
            machine = {"universal": "refused", "universal.reason": out.reason}
            return RequestResult("universal", machine, [f"universal: refused ({out.reason})"], True)
        return _report_result("universal", out.report)

    if cmd.startswith("congruence "):
        filt = _declared(inst.filtrations, "filtration", pos[0])
        if cmd == "congruence iso":
            fr = _declared(inst.filtrations, "filtration", pos[1])
            return _report_result("congruence_iso", cg.congruent_iso_check(filt, fr))
        if cmd == "congruence points":
            pts = cg.group_points(filt)
            lie = cg.lie_points(filt)
            machine = {
                "congruence_points.group_order": str(len(pts)),
                "congruence_points.lie_order": str(len(lie)),
            }
            return RequestResult(
                "congruence_points",
                machine,
                [f"points: |group| = {len(pts)}, |lie| = {len(lie)}"],
                True,
            )
        rep = cg.normalizer_check(filt, opts.get("K", "Z"))
        hypothesis_failed = any(
            k.startswith("commutes") and not ok for k, ok, _ in rep.clauses
        )
        if hypothesis_failed:
            machine = {f"normalizer.{k}": ("pass" if ok else "fail") for k, ok, _ in rep.clauses}
            machine["normalizer"] = "hypothesis-failed"
            return RequestResult(
                "normalizer", machine, ["normalizer: hypothesis failed (reported)"], True
            )
        return _report_result("normalizer", rep)

    # the one request left: rost
    alg = _get_ring(inst, pos[0])
    _, i_ideal = _declared(inst.ideals, "ideal", pos[1])
    _, j_ideal = _declared(inst.ideals, "ideal", pos[2])
    data = RostInput(alg, i_ideal, j_ideal)
    res = rost_space(data)
    rep = rost_subalgebra_check(data, **opts)
    rels = ", ".join(report_poly(g) for g in res.algebra.relations.groebner())
    return _report_result("rost", rep, {"rost.relations": rels})


def run(inst: InstanceFile, flags) -> tuple[str, int]:
    """Run the requests one after another, in declaration order; the
    first exception ends the run."""
    human: list[str] = []
    machine: dict[str, str] = {}
    ok = True
    label_counts: dict[str, int] = {}
    for _, args in inst.requests:
        out = run_request(inst, args, flags)
        label_counts[out.label] = label_counts.get(out.label, 0) + 1
        suffix = "" if label_counts[out.label] == 1 else f"#{label_counts[out.label]}"
        human.extend(out.human)
        for k, v in out.machine.items():
            machine[k + suffix] = v
        ok = ok and out.ok

    lines = []
    if not flags.machine_only:
        lines.append("== report ==")
        lines.extend(human)
        lines.append("== machine ==")
    for k in sorted(machine):
        lines.append(f"{k}: {machine[k]}")
    return "\n".join(lines) + "\n", (EXIT_PASS if ok else EXIT_FAIL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dilat", description="dilatation verifier")
    parser.add_argument("instance", help="instance file")
    parser.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP)
    parser.add_argument("--pair-cap", type=int, default=DEFAULT_PAIR_CAP)
    parser.add_argument("--oracle-size-cap", type=int, default=oc.SIZE_CAP)
    parser.add_argument("--jobs", type=int, default=1, help="accepted and ignored: requests run in order")
    parser.add_argument("--machine-only", action="store_true")
    flags = parser.parse_args(argv)

    try:
        # a monomial past the packed field bound fails while it is parsed
        text, code = run(parse(flags.instance, Limits(flags.degree_cap, flags.pair_cap)), flags)
    except (ResourceLimitError, oc.SizeCapError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ParseError, OSError, InputError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
