"""Every option that a subcommand's parser accepts is read by its handler.

For each parser of `bplab.cli.build_parser()` that sets an `fn` default (the
leaves: `resonance verify` and `resonance classify` are leaves, `resonance`
is not), the source of `fn` is scanned for the attribute loads `args.<dest>`,
and each option's dest must appear among them. `--seed` is exempt: the README
promises it on every subcommand, whether or not the subcommand draws numbers.
"""

import argparse
import ast
import inspect

from bplab.cli import build_parser

EXEMPT = {"help", "seed"}


def args_reads(source, param="args"):
    """Names x of the loads `args.x` in the source."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == param}


def leaf_parsers(parser, words=()):
    """(command words, parser) for each parser under `parser` that sets fn."""
    if parser.get_default("fn") is not None:
        yield words, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_parsers(sub, words + (name,))


def unread_options(parser):
    """Sorted '<command words>: <option>' of the options no handler reads."""
    found = []
    for words, leaf in leaf_parsers(parser):
        reads = args_reads(inspect.getsource(leaf.get_default("fn")))
        found += [f"{' '.join(words)}: {(a.option_strings or [a.dest])[0]}"
                  for a in leaf._actions if a.dest not in EXEMPT | reads]
    return sorted(found)


def _toy_handler(args):
    args.stored = 1
    return args.used + args.positional


def test_scanner_finds_unread_options():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    nested = sub.add_parser("outer").add_subparsers(dest="action")
    p = nested.add_parser("toy")
    p.add_argument("positional")
    for option in ("--used", "--stored", "--unused", "--seed"):
        p.add_argument(option)
    p.set_defaults(fn=_toy_handler)
    assert unread_options(parser) == ["outer toy: --stored", "outer toy: --unused"]


def test_every_option_is_read():
    assert unread_options(build_parser()) == []
