"""Command-line frontend.

Every command that reads a group or a fusion system takes one flag set,
``--in FILE`` or ``--catalog NAME`` and an optional ``--p PRIME``, and
``_load_group``/``_load_fusion`` are the one place that input is resolved.
Every command prints a JSON report with a canonical layout; identical
inputs give byte-identical reports.  Wall-clock timings are only included
behind ``--timings`` because they would break that guarantee.

Exit codes: 0 success, 1 mathematical rejection, 2 usage error,
3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import catalog, serialize
from .errors import FusionError, UsageError
from .groups import (
    FiniteGroup, GroupHom, Subgroup, characteristic_subgroups, is_prime, sylow
)
from .fusion import (
    FusionSystem,
    conjugacy,
    fusion_invariants,
    fusion_of_group,
    generated_fusion,
    saturation_report,
)
from .morphisms import check_morphism
from .factor import (
    Factorization,
    OmegaContext,
    factorization_of,
    factorize,
    factorize_all,
    krs_certificate,
    goldschmidt_factor,
)

# The names of ``verify.SUITES``, sorted, so that building the parser
# does not load the property suites.
SUITE_NAMES = ("all", "factor", "fusion-core", "group-core", "krs", "morphisms")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}") from exc


# the flags that name an input file, in the order the files are read
_INPUT_FLAGS = ("infile", "fact1", "fact2", "omega")


def _read_inputs(args) -> dict:
    """The parsed JSON of every input file on the command line, each read
    once; the report hashes and the handler use the same data."""
    paths = ((attr, getattr(args, attr)) for attr in _INPUT_FLAGS)
    return {attr: _load_json(path) for attr, path in paths if path}


def _required_input(args, inputs: dict, attr: str) -> dict:
    """The parsed file of a flag the command needs.  An empty path was
    not read up front, and fails here as an unreadable file."""
    return inputs[attr] if attr in inputs else _load_json(getattr(args, attr))


def _load_group(args, inputs: dict) -> tuple[FiniteGroup, Optional[int]]:
    """The group of ``--catalog`` or ``--in``, and ``--p`` or the entry's prime."""
    if args.catalog:
        b = catalog.built(args.catalog)
        return b.group, args.p or b.entry.prime
    if "infile" in inputs:
        return serialize.group_from_json(inputs["infile"], prime_hint=args.p), args.p
    raise UsageError("need --in FILE or --catalog NAME")


def _load_fusion(args, inputs: dict) -> FusionSystem:
    """A catalog entry's system, a fusion-system file, or F_S(G) of a group file."""
    if args.catalog:
        return catalog.built(args.catalog).fusion
    data = inputs.get("infile")
    if isinstance(data, dict) and "hom_table" in data:
        return serialize.fusion_from_json(data)
    # test the key, not the data: a file holding JSON null is a group file
    if "infile" in inputs and args.p is None:
        raise UsageError("group input needs --p PRIME")
    G, p = _load_group(args, inputs)
    return fusion_of_group(G, p)


def _load_omega(inputs: dict, F: FusionSystem) -> Optional[OmegaContext]:
    if "omega" not in inputs:
        return None
    maps = serialize.omega_maps_from_json(inputs["omega"])
    gens = [check_morphism(F, F, m) for m in maps]
    return OmegaContext.from_morphisms(F, gens)


def _factorization_from_arg(F: FusionSystem, data: dict) -> Factorization:
    bases = serialize.factorization_bases_from_json(data)
    return factorization_of(F, bases)


# ---------------------------------------------------------------------------
# command handlers: each takes the parsed arguments and the parsed input
# files, and returns a result dict


def cmd_group_load(args, inputs: dict) -> dict:
    G, _ = _load_group(args, inputs)
    return {"group": serialize.group_to_json(G), "order": G.order}


def cmd_group_describe(args, inputs: dict) -> dict:
    G, p = _load_group(args, inputs)
    desc = serialize.group_description(G)
    if p:
        chars = characteristic_subgroups(G, p)
        desc["p"] = p
        desc["sylow"] = serialize.subgroup_to_json(sylow(G, p))
        desc["center"] = serialize.subgroup_to_json(chars.center)
        desc["derived"] = serialize.subgroup_to_json(chars.derived)
        desc["p_prime_core"] = serialize.subgroup_to_json(chars.o_p_prime)
        desc["p_residual"] = serialize.subgroup_to_json(chars.o_upper_p_prime)
    return desc


def cmd_fusion_of_group(args, inputs: dict) -> dict:
    G, p = _load_group(args, inputs)
    if not p:
        raise UsageError("need --p PRIME")
    F = fusion_of_group(G, p)
    return {"fusion": serialize.fusion_to_json(F)}


def cmd_fusion_generate(args, inputs: dict) -> dict:
    data = _required_input(args, inputs, "infile")
    if "group" not in data or "generators" not in data:
        raise UsageError("generate input needs 'group', 'p' and 'generators'")
    p = data.get("p", args.p)
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise UsageError("generate input needs a prime")
    G = serialize.group_from_json(data["group"], prime_hint=p)
    gens = [
        GroupHom(Subgroup(G, domain), G.full_subgroup(), images)
        for domain, images in serialize.generator_specs_from_json(data, G.order)
    ]
    F = generated_fusion(G, gens, p=p)
    return {"fusion": serialize.fusion_to_json(F)}


def cmd_analyze(args, inputs: dict) -> dict:
    F = _load_fusion(args, inputs)
    report = saturation_report(F)
    inv = fusion_invariants(F)
    classes = conjugacy(F)
    return {
        "base_order": F.base.order,
        "p": F.p,
        "subgroups": len(F.lattice.subs),
        "morphisms": F.morphism_count(),
        "saturated": report.verdict,
        "continuity": report.continuity,
        "center": serialize.subgroup_to_json(inv.center),
        "focal": serialize.subgroup_to_json(inv.focal),
        "strongly_closed": [list(s.members) for s in inv.strongly_closed],
        "centric": list(inv.centric),
        "radical": list(inv.radical),
        "subgroup_classes": [list(c) for c in classes.subgroup_classes],
        "element_classes": [list(c) for c in classes.element_classes],
    }


def cmd_factorize(args, inputs: dict) -> dict:
    F = _load_fusion(args, inputs)
    omega = _load_omega(inputs, F)
    if args.exhaustive:
        facts = factorize_all(F, omega)
        return {
            "count": len(facts),
            "factorizations": [serialize.factorization_to_json(f) for f in facts],
        }
    fact = factorize(F, omega)
    return {
        "parts": len(fact.parts),
        "factorization": serialize.factorization_to_json(fact),
        "indecomposable": len(fact.parts) == 1,
    }


def cmd_krs(args, inputs: dict) -> dict:
    F = _load_fusion(args, inputs)
    omega = _load_omega(inputs, F)
    fact1 = _factorization_from_arg(F, _required_input(args, inputs, "fact1"))
    fact2 = _factorization_from_arg(F, _required_input(args, inputs, "fact2"))
    cert = krs_certificate(F, fact1, fact2, omega)
    return {
        "certificate": serialize.certificate_to_json(cert),
        "parts": len(fact1.parts),
    }


def cmd_goldschmidt(args, inputs: dict) -> dict:
    G, _ = _load_group(args, inputs)
    F = fusion_of_group(G, 2)
    fact = factorize(F)
    closures = goldschmidt_factor(G, fact)
    return {
        "parts": [list(p.base.members) for p in fact.parts],
        "closures": [serialize.subgroup_to_json(H) for H in closures],
        "closure_orders": [H.order for H in closures],
    }


def cmd_verify(args, inputs: dict) -> dict:
    # the property suites are loaded only by this command
    from . import verify

    results = verify.run_suite(args.suite)
    return {
        "suite": args.suite,
        "passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }


def cmd_catalog_list(args, inputs: dict) -> dict:
    return {
        "entries": [
            {"name": e.name, "prime": e.prime, "description": e.description}
            for e in catalog.ENTRIES
        ]
    }


def cmd_catalog_show(args, inputs: dict) -> dict:
    e = catalog.entry(args.name)
    record = catalog.verify_expected(e.name)
    b = catalog.built(e.name)
    return {
        "name": e.name,
        "description": e.description,
        "prime": e.prime,
        "group": serialize.group_to_json(b.group),
        "verified": record,
    }


# ---------------------------------------------------------------------------
# driver


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to a file")
    common.add_argument("--timings", action="store_true", help="include wall-clock timings")
    source = argparse.ArgumentParser(add_help=False, parents=[common])
    source.add_argument("--in", dest="infile")
    source.add_argument("--catalog")
    source.add_argument("--p", type=int)

    def command(where, name, handler, parent, **kw) -> argparse.ArgumentParser:
        sp = where.add_parser(name, parents=[parent], **kw)
        sp.set_defaults(handler=handler)
        return sp

    parser = argparse.ArgumentParser(
        prog="fusionsys",
        description="exact computations with saturated fusion systems over finite p-groups",
    )
    # every namespace carries every input attribute, whatever the command
    parser.set_defaults(**dict.fromkeys(_INPUT_FLAGS + ("catalog", "p")))
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="load or describe a finite group")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    command(gsub, "load", cmd_group_load, source)
    command(gsub, "describe", cmd_group_describe, source)

    f = sub.add_parser("fusion", help="build a fusion system")
    fsub = f.add_subparsers(dest="subcommand", required=True)
    command(fsub, "of-group", cmd_fusion_of_group, source)
    sp = command(fsub, "generate", cmd_fusion_generate, common)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--p", type=int)

    command(sub, "analyze", cmd_analyze, source, help="saturation and structural invariants")

    sp = command(sub, "factorize", cmd_factorize, source, help="indecomposable direct factors")
    sp.add_argument("--omega", help="JSON file with automorphism maps")
    sp.add_argument("--exhaustive", action="store_true")

    sp = command(
        sub, "krs", cmd_krs, source, help="link two factorizations by a normal automorphism"
    )
    sp.add_argument("--fact1", required=True)
    sp.add_argument("--fact2", required=True)
    sp.add_argument("--omega")

    sp = command(
        sub, "goldschmidt", cmd_goldschmidt, common, help="lift a p=2 factorization to the group"
    )
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--catalog")

    sp = command(sub, "verify", cmd_verify, common, help="run a property suite")
    sp.add_argument("suite", choices=SUITE_NAMES)

    c = sub.add_parser("catalog", help="bundled example groups")
    csub = c.add_subparsers(dest="subcommand", required=True)
    command(csub, "list", cmd_catalog_list, common)
    command(csub, "show", cmd_catalog_show, common).add_argument("name")

    return parser


def _input_digests(args, inputs: dict) -> dict:
    digests = {attr: serialize.digest(data) for attr, data in inputs.items()}
    if args.catalog:
        digests["catalog"] = args.catalog
    return digests


# The parser is a constant: built on first use, never at import, and
# shared by ``run`` and ``main``.
_PARSER: Optional[argparse.ArgumentParser] = None


def _parser() -> argparse.ArgumentParser:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def run(argv) -> tuple[int, dict]:
    """Execute a command line; returns (exit_code, report).

    Usage errors that argparse finds raise ``SystemExit``."""
    return _execute(argv, _parser().parse_args(argv))


def _execute(argv, args: argparse.Namespace) -> tuple[int, dict]:
    """Run the command that ``args``, parsed from ``argv``, names."""
    started = time.monotonic()
    report = {"command": list(argv)}
    try:
        if args.p is not None and not is_prime(args.p):
            raise UsageError(f"--p {args.p} is not a prime")
        inputs = _read_inputs(args)
        report["inputs"] = _input_digests(args, inputs)
        results = args.handler(args, inputs)
    except FusionError as exc:
        report["error"] = exc.payload()
        report["hash"] = serialize.digest(report["error"])
        return exc.exit_code, report
    mathematical_failure = args.handler is cmd_verify and not results.get("passed", True)
    report["results"] = results
    report["hash"] = serialize.digest(results)
    if args.timings:
        report["timings"] = {"seconds": round(time.monotonic() - started, 3)}
    return (1 if mathematical_failure else 0), report


def main(argv=None) -> int:
    """Run a command line and print the report, or write it to ``--out``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse usage errors exit with code 2
        return int(exc.code or 0)
    code, report = _execute(argv, args)
    payload = serialize.canonical_dumps(report)
    if not args.out:
        print(payload)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    except OSError as exc:
        err = UsageError(f"cannot write JSON to {args.out}: {exc}")
        print(f"fusionsys: error: {err}", file=sys.stderr)
        return err.exit_code
    return code


if __name__ == "__main__":
    raise SystemExit(main())
