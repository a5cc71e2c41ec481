"""Function definitions compiled to Python source.

`Signature.value_of` calls `closure` the first time it forces a global
defined as `fun x1 ... xk => B`. `B`, and each lambda body inside it,
becomes one Python function `f(env, fuel, sig)` that does what
`eval_term` does, step for step: the same order of evaluation, the same
globals forced, one inline fuel decrement per beta or iota step. A call
in tail position returns `(env, body)` to `eval_term`'s loop, so a
diverging definition runs at constant stack depth. A natElim peels
its target's successors and folds upward in a loop, as `eval_term`
does; a literal step `fun _ r => B` spends its two beta steps inline
and runs B's function on the extended environment. Both branches of a
natElim need its zero case; one that takes more than a line becomes a
function they share, so the source grows linearly with nesting. The
other terms (Π, Σ, `Id`, pairs, universes and `absurd`) are handed to
`eval_term` itself, and a definition whose body is one of them is not
compiled at all. `sig.code` keeps each function under the body term it
evaluates. The functions read `tinytt.semantics` as their globals and
hold the objects they name in closure cells, so no reference cycle
keeps a finished signature alive.
"""

from __future__ import annotations

from . import semantics
from .semantics import _CONSTS, Closure
from .syntax import App, ElimJ, ElimK, Fst, Global, Lambda, NatElim, Snd, Succ, Var

_SPEND = ("if fuel.remaining == 0: raise FuelExhausted(fuel.total)",
          "fuel.remaining -= 1")
# The terms whose evaluation the generated code does itself. A definition
# whose body is none of these, such as a type former or a pair, stays with
# `eval_term`: its body builds one value per use, and on the benchmark's
# workloads the compile, about 0.2 ms a definition, costs more than it saves.
_OWN = (App, ElimJ, ElimK, Fst, Snd, NatElim, Succ, Global, Var, *_CONSTS)


def closure(sig, lam: Lambda) -> Closure:
    """The value of a global whose body is the lambda `lam`. A body nested
    too deeply for Python to compile stays with the interpreter."""
    code = None
    if type(_strip(lam.body)[0]) in _OWN:
        try:
            code = _compile(sig, lam.body)
        except (RecursionError, SyntaxError):
            pass
    return Closure(lam.name, (), lam.body, code)


def _strip(t):
    """The body under `t`'s leading lambdas, and how many there are."""
    k = 0
    while type(t) is Lambda:
        t, k = t.body, k + 1
    return t, k


def _compile(sig, body):
    """The function of `body` with its leading lambdas stripped; the first
    call compiles it with every lambda body inside it."""
    body = _strip(body)[0]
    if body not in sig.code:
        gen = _Gen(sig)
        gen.function(body)
        made: dict = {}
        source = "\n".join([f"def make({', '.join(gen.names.values())}):", *gen.module,
                            f"    return {', '.join(gen.bodies.values())},"])
        exec(compile(source, "<tinytt>", "exec"), vars(semantics), made)
        sig.code.update(zip(gen.bodies, made["make"](*gen.named)))
    return sig.code[body]


class _Gen:
    """The source of the functions for one body, and the objects it names."""

    def __init__(self, sig):
        self.sig = sig
        self.names: dict[int, str] = {}
        self.named: list = []
        self.bodies: dict = {}
        self.module: list[str] = []
        self.lines: list[str] = []
        self.indent = "        "
        self.temps = 0

    def name(self, obj) -> str:
        if id(obj) not in self.names:
            self.names[id(obj)] = f"k{len(self.names)}"
            self.named.append(obj)
        return self.names[id(obj)]

    def line(self, *lines: str) -> None:
        self.lines += [self.indent + text for text in lines]

    def temp(self) -> str:
        self.temps += 1
        return f"v{self.temps}"

    def function(self, body) -> str:
        """The name of the function that evaluates `body`, stripped."""
        body = _strip(body)[0]
        if body not in self.bodies:
            self.bodies[body] = name = f"f{len(self.bodies)}"
            outer, self.lines = self.lines, [f"    def {name}(e, fuel, sig):"]
            self.emit(body, None)
            self.module += self.lines
            self.lines = outer
        return self.bodies[body]

    def emit(self, t, dest: str | None) -> None:
        """Statements that evaluate `t` into `dest`; with `dest` None, they
        return its value, or a tail call as (env, body)."""
        put = "return " if dest is None else f"{dest} = "
        cls = type(t)
        if cls is App:
            self.app(t, dest)
        elif cls in (ElimJ, ElimK, Fst, Snd):
            j = cls is ElimJ or cls is ElimK
            v = self.value(t.proof if j else t.target)
            self.line(f"if {v} is V_REFL:" if j else f"if type({v}) is VPair:")
            self.indent += "    "
            self.line(*_SPEND)
            if j:
                self.emit(t.case, dest)
            else:
                self.line(put + f"{v}.{'first' if cls is Fst else 'second'}")
            self.indent = self.indent[:-4]
            self.line("else:", f"    {put}_stuck(e, {self.name(t)}, {v}, fuel, sig)")
        elif cls is NatElim:
            self.natelim(t, dest)
        elif cls is Succ:
            self.line(put + f"VSucc({self.value(t.arg)})")
        elif cls is Global:
            entry = self.name(self.sig.entries[t.name])
            self.line(put + f"{entry}.cached or sig.value_of({t.name!r}, fuel)")
        elif cls is Var or cls is Lambda or cls in _CONSTS:
            self.line(put + self.value(t))
        elif dest is None:
            self.line(f"return e, {self.name(t)}")
        else:
            self.line(f"{dest} = eval_term(e, {self.name(t)}, fuel, sig)")

    def value(self, t) -> str:
        """An expression for `t`'s value that has no effects, after the
        statements that compute it."""
        cls = type(t)
        if cls is Var:
            return f"e[{t.index}]"
        if cls is Lambda:
            return f"Closure({t.name!r}, e, {self.name(t.body)}, {self.function(t.body)})"
        if cls in _CONSTS:
            return self.name(_CONSTS[cls])
        v = self.temp()
        self.emit(t, v)
        return v

    def call(self, code: str, env: str, dest: str | None) -> None:
        """Statements that run the function `code` on `env`, as for `emit`."""
        if dest is None:
            self.line(f"return {env}, {code}")
        else:
            self.line(f"{dest} = {code}({env}, fuel, sig)",
                      f"if type({dest}) is tuple: {dest} = eval_term(*{dest}, fuel, sig)")

    def shared(self, t, dest: str | None) -> None:
        """As `emit`, but a term longer than a line runs as a function of its
        own, so that code which evaluates `t` twice holds its code once."""
        if type(t) in (Var, Lambda, Global) or type(t) in _CONSTS:
            self.emit(t, dest)
        else:
            self.call(self.function(t), "e", dest)

    def natelim(self, t: NatElim, dest: str | None) -> None:
        """Statements that evaluate `t` as `eval_term` does, into `dest` as
        for `emit`."""
        n = self.temp()
        self.emit(t.target, n)
        self.line(f"if {n} is V_ZERO:")
        self.indent += "    "
        self.line(*_SPEND)
        self.shared(t.zcase, dest)
        self.indent = self.indent[:-4]
        self.line("else:")
        self.indent += "    "
        motive, zcase, scase, preds, acc, m = (self.temp() for _ in range(6))
        if type(t.motive) is Lambda:
            # Read only from a stuck frame, so built as `eval_term` does.
            self.line(f"{motive} = Closure({t.motive.name!r}, e, {self.name(t.motive.body)})")
        else:
            self.emit(t.motive, motive)
        self.shared(t.zcase, zcase)
        self.emit(t.scase, scase)
        # Peel the successor spine, then fold upward iteratively.
        self.line(f"{preds} = []",
                  f"while type({n}) is VSucc: {preds}.append({n}.arg); {n} = {n}.arg",
                  f"if {n} is V_ZERO:", *("    " + s for s in _SPEND), f"    {acc} = {zcase}",
                  f"else: {acc} = _extend({n}, NatElim, ({motive}, {zcase}, {scase}))",
                  f"for {m} in reversed({preds}):")
        self.indent += "    "
        self.line(*_SPEND)
        step = t.scase.body if type(t.scase) is Lambda else None
        if type(step) is Lambda and type(step.body) is not Lambda:
            # `fun _ r => B`: spend both beta steps here and run B's function.
            self.line(*_SPEND, *_SPEND)
            self.call(self.function(step.body), f"({acc}, {m}) + e", acc)
        else:
            self.line(f"{acc} = vapp(vapp({scase}, {m}, fuel, sig), {acc}, fuel, sig)")
        self.indent = self.indent[:-4]
        self.line(("return " if dest is None else f"{dest} = ") + acc)
        self.indent = self.indent[:-4]

    def app(self, t: App, dest: str | None) -> None:
        args = []
        while type(t) is App:
            args.append(t.arg)
            t = t.fn
        args.reverse()
        fn = None
        if type(t) is Global:
            entry = self.sig.entries[t.name]
            body, k = _strip(entry.body)
            if 0 < k <= len(args) and type(body) in _OWN:
                # A static call: force the global, bind k arguments at one
                # fuel each, and run the function of its body.
                code = self.name(_compile(self.sig, entry.body))
                self.line(f"if {self.name(entry)}.cached is None: sig.value_of({t.name!r}, fuel)")
                bound = []
                for a in args[:k]:
                    bound.append(self.value(a))
                    self.line(*_SPEND)
                env = "(" + "".join(v + ", " for v in reversed(bound)) + ")"
                args = args[k:]
                fn = self.temp() if args else dest
                self.call(code, env, fn)
                if not args:
                    return
        if fn is None:
            fn = self.value(t)
        for i, a in enumerate(args):
            arg = self.value(a)
            if i + 1 == len(args) and dest is None:
                self.line(f"return enter({fn}, {arg}, fuel)")
            else:
                v = dest if i + 1 == len(args) else self.temp()
                self.line(f"{v} = vapp({fn}, {arg}, fuel, sig)")
                fn = v
