"""Command line surface.

Exit codes: 0 for success / accept / all checks passing, 1 for reject or a
failed check, 2 for usage and input errors.  All output is deterministic
for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import automaton as automaton_mod
from .coxeter import (
    CoxeterSystem,
    ResourceLimitError,
    load_group_file,
    parse_json,
    word_from_string,
    word_to_string,
)
from .language import VoraciousLanguage
from .verify import Verifier, VerifierConfig
from .walls import WallGeometry


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voracious",
        description="Exact projection, language, and automaton computations "
        "for Coxeter groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, word_arg=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", required=True, help="path to a group JSON file")
        if word_arg:
            p.add_argument(
                "word",
                nargs="?",
                default="",
                help="word over the group generators "
                "(single letters concatenated, or comma separated)",
            )
        return p

    command("reduce", "print the canonical reduced word and its length")
    command("project", "print the projection chain and its blocks")
    command("walls", "print the frontier walls of the word's element")
    command("small-roots", "print the small-root universe", word_arg=False)

    p = command("automaton", "build and export the language automaton", word_arg=False)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", help="output file (default: stdout)")

    p = command("accept", "run a word through the automaton")
    p.add_argument("--automaton", help="automaton JSON file (default: build fresh)")

    command("member", "test membership of a word in the language")

    p = command("verify", "run the verification suite", word_arg=False)
    p.add_argument("--radius", type=int, default=6)
    p.add_argument("--seed", type=int, default=0,
                   help="seeds only the fellow-traveller sample past MAX_WORD_PAIRS")
    p.add_argument("--out", help="report JSON file (default: stdout)")
    p.add_argument("--stats", action="store_true",
                   help="also print check times and memo sizes to stderr")
    return parser


def _load(args):
    cox = load_group_file(args.group)
    system = CoxeterSystem(cox)
    return system, WallGeometry(system)


def _parse_word(text: str, system: CoxeterSystem):
    return word_from_string(text, system.cox.generators)


def _render(word, system) -> str:
    return word_to_string(word, system.cox.generators)


def _check_out(out_path: str | None) -> None:
    """Refuse an output path that could not be written, before any group
    work: a folder, or a new file in a missing or read-only folder.  An
    existing file is checked, not opened, so a later error leaves it intact."""
    if out_path is None:
        return
    if os.path.exists(out_path):
        ok = not os.path.isdir(out_path) and os.access(out_path, os.W_OK)
    else:
        folder = os.path.dirname(out_path) or "."
        ok = os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)
    if not ok:
        raise OSError(f"cannot write --out {out_path!r}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _wall_lines(geometry, walls) -> str:
    rows = sorted(walls, key=geometry.output_root)
    return "".join(
        "(" + ", ".join(geometry.root_strings(w)) + ")\n" for w in rows
    )


def _cmd_reduce(args) -> int:
    system, geometry = _load(args)
    g = system.element_of_word(_parse_word(args.word, system))
    print(_render(geometry.shortlex_word(g), system))
    print(f"length: {g.length}")
    return 0


def _cmd_project(args) -> int:
    system, geometry = _load(args)
    language = VoraciousLanguage(geometry)
    g = system.element_of_word(_parse_word(args.word, system))
    chain = language.chain(g)
    names = [
        _render(geometry.shortlex_word(e), system) or "id" for e in chain.elements
    ]
    print(" -> ".join(names))
    blocks = "|".join(
        _render(geometry.shortlex_word(b), system) for b in chain.blocks
    )
    print(f"blocks: {blocks}")
    return 0


def _cmd_walls(args) -> int:
    system, geometry = _load(args)
    g = system.element_of_word(_parse_word(args.word, system))
    walls = system.walls_of(geometry.frontier_set(g))
    sys.stdout.write(_wall_lines(geometry, walls))
    return 0


def _cmd_small_roots(args) -> int:
    _, geometry = _load(args)
    sys.stdout.write(_wall_lines(geometry, automaton_mod.small_roots(geometry)))
    return 0


def _cmd_automaton(args) -> int:
    _check_out(args.out)
    _, geometry = _load(args)
    aut = automaton_mod.build_automaton(geometry)
    text = aut.to_json() if args.format == "json" else aut.to_dot()
    _emit(text, args.out)
    return 0


def _cmd_accept(args) -> int:
    system, geometry = _load(args)
    word = _parse_word(args.word, system)
    if args.automaton is not None:
        with open(args.automaton, "r", encoding="utf-8") as fh:
            data = parse_json(fh.read())
        aut = automaton_mod.from_json_dict(data, geometry)
    else:
        aut = automaton_mod.build_automaton(geometry)
    if aut.accepts(word):
        print("accept")
        return 0
    print("reject")
    return 1


def _cmd_member(args) -> int:
    system, geometry = _load(args)
    language = VoraciousLanguage(geometry)
    if language.contains(_parse_word(args.word, system)):
        print("member")
        return 0
    print("not a member")
    return 1


def _cmd_verify(args) -> int:
    _check_out(args.out)
    system, geometry = _load(args)
    config = VerifierConfig(radius=args.radius, seed=args.seed)
    verifier = Verifier(geometry, config)
    report = verifier.run_suite()
    for check in report.checks:
        print(f"{check.name}: {check.status}", file=sys.stderr)
    c = report.constants
    print(
        f"constants: C_hat={c.C_hat} N_hat={c.N_hat} Q_hat={c.Q_hat}",
        file=sys.stderr,
    )
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"overall: {'pass' if report.passed else 'fail'}", file=sys.stderr)
    if args.stats:
        for name, seconds in report.seconds.items():
            print(f"time {name}: {seconds:.4f} s", file=sys.stderr)
        layers = {"coxeter": system, "walls": geometry, "separators": verifier.separators}
        for layer, owner in layers.items():
            for key, value in owner.stats().items():
                print(f"{layer}.{key}: {value}", file=sys.stderr)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


_COMMANDS = {
    "reduce": _cmd_reduce,
    "project": _cmd_project,
    "walls": _cmd_walls,
    "small-roots": _cmd_small_roots,
    "automaton": _cmd_automaton,
    "accept": _cmd_accept,
    "member": _cmd_member,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ResourceLimitError, OSError, ValueError) as e:
        # GroupConfigError and malformed automaton files are ValueErrors.
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
