"""Command-line front end: evaluate, show, size, compile, bench.

Exit codes: 0 on success, 2 for parse, usage, unreadable-input, too-deep
input and out-of-memory errors, 3 for evaluation errors.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path
from statistics import median

from .dag import build_dag, build_forest, format_dag
from .generators import mul, mul_shared, sklansky, sklansky_shared
from .interp import UnboundVariableError, evaluate, print_let, size
from .netlist import emit_netlist, emit_threeaddr
from .parser import ParseError, elaborate, parse


def _read_program(path: str) -> str:
    # Bytes decoded here, so stdin is UTF-8 whatever the locale says, as a file is.
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    return data.decode("utf-8")


def _program_from(args) -> object:
    ast = parse(_read_program(args.file))
    return lambda builder: elaborate(ast, builder)


#: What int() accepts as a decimal literal; it still refuses one whose digits
#: pass the interpreter's int-to-string limit.
_INT_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _var_binding(text: str) -> tuple[str, int]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    try:
        return name, int(value)
    except ValueError:
        problem = "is too long" if _INT_TEXT.fullmatch(value) else "must be an integer"
        raise argparse.ArgumentTypeError(f"value for {name!r} {problem}") from None


def _cmd_eval(args) -> None:
    program = _program_from(args)
    # Reversed, so that the first binding of a name is the one dict keeps.
    print(evaluate(program, dict(reversed(args.var))))


def _cmd_show(args) -> None:
    print(print_let(_program_from(args)))


def _cmd_size(args) -> None:
    print(size(_program_from(args)))


def _cmd_compile(args) -> None:
    program = _program_from(args)
    root, dag = build_dag(program)
    if args.format == "dag":
        print(format_dag(root, dag))
    elif args.format == "netlist":
        sys.stdout.write(emit_netlist(dag, [root]))
    else:
        sys.stdout.write(emit_threeaddr(dag, root))


def _inputs(builder, count):
    return [builder.variable(f"i{k}") for k in range(count)]


#: Each generator maps a builder and --n to the forest's terms: mul gens
#: take n as the multiplier of one input, sklansky gens as the input count.
_GENERATORS = {
    "mul": lambda b, n: [mul(b, n, b.variable("i"))],
    "mul-shared": lambda b, n: [mul_shared(b, n, b.variable("i"))],
    "sklansky": lambda b, n: sklansky(b.add, _inputs(b, n)),
    "sklansky-shared": lambda b, n: sklansky_shared(b, _inputs(b, n)),
}


def _cmd_bench(args) -> None:
    generator = _GENERATORS[args.gen]

    def program(builder):
        return generator(builder, args.n)

    times_ms = []
    nodes = 0
    for _ in range(args.repeat):
        start = time.perf_counter()
        _roots, dag = build_forest(program)
        times_ms.append((time.perf_counter() - start) * 1000.0)
        nodes = len(dag)
    print(f"{args.gen},{args.n},{nodes},{median(times_ms):.3f}")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: ...`` line, without the usage text.

    Subparsers are made from the same class, so this covers them too."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_arg_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="exprdag",
        description="Compile and run a small arithmetic DSL with explicit sharing.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def program_command(name, run, help):
        command = sub.add_parser(name, help=help)
        command.add_argument("file", nargs="?", default="-", help="program file, or - for stdin")
        command.set_defaults(func=run)
        return command

    program_command("eval", _cmd_eval, "evaluate a program").add_argument(
        "--var",
        action="append",
        type=_var_binding,
        default=[],
        metavar="NAME=VALUE",
        help="bind a free variable (repeatable; first binding of a name wins)",
    )
    program_command("show", _cmd_show, "print a program with its sharing as let bindings")
    program_command("size", _cmd_size, "count constructors, shared subterms once")
    program_command("compile", _cmd_compile, "compile to a chosen representation").add_argument(
        "--format",
        choices=("dag", "netlist", "threeaddr"),
        default="netlist",
        help="output representation (default: netlist)",
    )

    bench = sub.add_parser("bench", help="time DAG construction for a generated workload")
    bench.add_argument("--gen", choices=sorted(_GENERATORS), required=True)
    bench.add_argument(
        "--n",
        type=int,
        required=True,
        help="multiplier for mul gens, input count for sklansky gens (n >= 0)",
    )
    bench.add_argument("--repeat", type=int, default=5, help="runs to take the median of")
    bench.set_defaults(func=_cmd_bench)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_arg_parser()
    args = parser.parse_args(argv)
    if args.command == "bench":
        if args.n < 0:
            parser.error("--n must be >= 0")
        if args.repeat < 1:
            parser.error("--repeat must be >= 1")
    try:
        args.func(args)
    except (ParseError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: program nests too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except UnboundVariableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0
