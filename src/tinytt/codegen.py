"""Function definitions compiled to Python source.

`Signature.value_of` calls `closure` the first time it forces a global
defined as `fun x1 ... xk => B`. `B`, and each lambda body inside it,
becomes one Python function `f(env, fuel, sig)` that does what
`eval_term` does, step for step: the same order of evaluation, the same
globals forced, and the budget exhausted at the same step. It charges
fuel once per straight-line run: the beta and iota steps it passes are
counted while it generates, and charged together right before the next
statement that can read fuel or force a global, that is, before a call,
a return, a loop or the end of a branch. A pure test such as
`v is V_REFL` carries the count into both arms; after a J, K or
projection the reducing arm goes on owing it, and the stuck arm, which
charged before its call, gives it back. A global reference that finds
the global cached costs nothing; one that forces it first charges the
steps owed, so forcing sees the fuel the interpreter would, and gives
them back to be charged with the rest (`semantics._force`). A J or K
whose case is a literal `fun x => B` and which is applied, as in the
paper's `coe`, reduces where the proof is refl without building the
case's closure: the J step and the beta step are owed, and B runs on the
extended environment. A call in tail position returns `(env, body)` to
`eval_term`'s loop, so a diverging definition runs at constant stack
depth. A natElim peels its target's successors and folds upward in a
loop, as `eval_term` does; a literal step `fun _ r => B` charges its two
beta steps with the fold's iota step and runs B's function on the
extended environment. Both branches of a natElim need its zero case; one
that takes more than a line becomes a function they share, so the source
grows linearly with nesting. The other terms (Π, Σ, `Id`, pairs,
universes and `absurd`) are handed to `eval_term` itself, and a
definition whose body is one of them is not compiled at all. `sig.code`
keeps each function under the body term it evaluates. The functions read
`tinytt.semantics` as their globals and hold the objects they name in
closure cells, so no reference cycle keeps a finished signature alive.
"""

from __future__ import annotations

from contextlib import contextmanager

from . import semantics
from .semantics import _CONSTS, Closure
from .syntax import App, ElimJ, ElimK, Fst, Global, Lambda, NatElim, Snd, Succ, Var

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
        self.indent = ""
        self.temps = 0
        # Steps emitted in the current function and not yet charged.
        self.owed = 0

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

    def charge(self, keep: int = 0) -> None:
        """Charge the steps owed beyond `keep`, as many one-step charges
        would, so that `keep` stay owed. With fewer owed, give the rest
        back: `fuel.remaining` less the steps owed is always the fuel the
        interpreter would have, and the next charge takes them again."""
        n = self.owed - keep
        if n > 0:
            self.line(f"if fuel.remaining < {n}: fuel.run_out()", f"fuel.remaining -= {n}")
        elif n < 0:
            self.line(f"fuel.remaining += {-n}")
        self.owed = keep

    @contextmanager
    def block(self, header: str, owed: int, keep: int | None = 0):
        """A compound statement whose body is emitted in the `with` block.
        The body starts owing `owed` steps and ends owing `keep`, as
        `charge` leaves it; with `keep` None it ends owing what it owes."""
        self.line(header)
        self.indent += "    "
        self.owed = owed
        yield
        if keep is not None:
            self.charge(keep)
        self.indent = self.indent[:-4]

    def put(self, dest: str | None, expr: str, calls: bool = False) -> None:
        """Return `expr`, or assign it to `dest`; an `expr` that `calls`
        something may read fuel, so the steps owed are charged first."""
        if dest is None or calls:
            self.charge()
        self.line(("return " if dest is None else f"{dest} = ") + expr)

    def force(self, name: str) -> str:
        """An expression for the value of the global `name`."""
        entry = self.name(self.sig.entries[name])
        return f"{entry}.cached or _force(sig, {name!r}, fuel, {self.owed})"

    def function(self, body) -> str:
        """The name of the function that evaluates `body`, stripped."""
        body = _strip(body)[0]
        if body not in self.bodies:
            self.bodies[body] = name = f"f{len(self.bodies)}"
            outer = self.lines, self.indent, self.owed
            self.lines, self.indent, self.owed = [f"    def {name}(e, fuel, sig):"], "        ", 0
            self.emit(body, None)
            self.module += self.lines
            self.lines, self.indent, self.owed = outer
        return self.bodies[body]

    def emit(self, t, dest: str | None) -> None:
        """Statements that evaluate `t` into `dest`; with `dest` None, they
        return its value, or a tail call as (env, body)."""
        cls = type(t)
        if cls is App:
            self.app(t, dest)
        elif cls in (ElimJ, ElimK, Fst, Snd):
            j = cls is ElimJ or cls is ElimK
            v = self.value(t.proof if j else t.target)
            owed = self.owed
            # The reducing arm keeps what it owes; the stuck arm, which
            # charges before its call, gives that count back.
            test = f"if {v} is V_REFL:" if j else f"if type({v}) is VPair:"
            with self.block(test, owed + 1, keep=None):
                if j:
                    self.emit(t.case, dest)
                else:
                    self.put(dest, f"{v}.{'first' if cls is Fst else 'second'}")
            with self.block("else:", owed, keep=self.owed):
                self.put(dest, f"_stuck(e, {self.name(t)}, {v}, fuel, sig)", calls=True)
        elif cls is NatElim:
            self.natelim(t, dest)
        elif cls is Succ:
            self.put(dest, f"VSucc({self.value(t.arg)})")
        elif cls is Global:
            if dest is None:
                # The cached path returns at once, so nothing may stay owed.
                self.charge()
            self.put(dest, self.force(t.name))
        elif cls is Var or cls is Lambda or cls in _CONSTS:
            self.put(dest, self.value(t))
        elif dest is None:
            self.put(dest, f"e, {self.name(t)}")
        else:
            self.put(dest, f"eval_term(e, {self.name(t)}, fuel, sig)", calls=True)

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
            self.put(dest, f"{env}, {code}")
        else:
            self.put(dest, f"{code}({env}, fuel, sig)", calls=True)
            self.line(f"if type({dest}) is tuple: {dest} = eval_term(*{dest}, fuel, sig)")

    def shared(self, t, dest: str | None) -> None:
        """As `emit`, but a term longer than a line runs as a function of its
        own, so that code which evaluates `t` twice holds its code once."""
        if type(t) in (Var, Lambda, Global) or type(t) in _CONSTS:
            self.emit(t, dest)
        else:
            self.call(self.function(t), "e", dest)

    def once(self, t) -> str:
        """As `value`, for code that evaluates `t` in two branches: a term
        longer than a line runs as a function of its own."""
        if type(t) in (Var, Lambda) or type(t) in _CONSTS:
            return self.value(t)
        v = self.temp()
        self.shared(t, v)
        return v

    def natelim(self, t: NatElim, dest: str | None) -> None:
        """Statements that evaluate `t` as `eval_term` does, into `dest` as
        for `emit`."""
        n = self.temp()
        self.emit(t.target, n)
        owed = self.owed
        with self.block(f"if {n} is V_ZERO:", owed + 1):
            self.shared(t.zcase, dest)
        with self.block("else:", owed):
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
                      f"while type({n}) is VSucc: {preds}.append({n}.arg); {n} = {n}.arg")
            owed = self.owed
            with self.block(f"if {n} is V_ZERO:", owed + 1):
                self.line(f"{acc} = {zcase}")
            with self.block("else:", owed):
                self.line(f"{acc} = _extend({n}, NatElim, ({motive}, {zcase}, {scase}))")
            # Both arms ended charged; each fold owes its own iota step.
            with self.block(f"for {m} in reversed({preds}):", 1):
                step = t.scase.body if type(t.scase) is Lambda else None
                if type(step) is Lambda and type(step.body) is not Lambda:
                    # `fun _ r => B`: two beta steps here, then B's function.
                    self.owed += 2
                    self.call(self.function(step.body), f"({acc}, {m}) + e", acc)
                else:
                    self.put(acc, f"vapp(vapp({scase}, {m}, fuel, sig), {acc}, fuel, sig)",
                             calls=True)
            self.put(dest, acc)

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
                self.line(self.force(t.name))
                bound = []
                for a in args[:k]:
                    bound.append(self.value(a))
                    self.owed += 1
                env = "(" + "".join(v + ", " for v in reversed(bound)) + ")"
                args = args[k:]
                fn = self.temp() if args else dest
                self.call(code, env, fn)
                if not args:
                    return
        case = t.case if type(t) in (ElimJ, ElimK) else None
        if fn is None and type(case) is Lambda and type(case.body) is not Lambda:
            fn = self.temp() if len(args) > 1 else dest
            self.apply_case(t, args[0], fn)
            args = args[1:]
        elif fn is None:
            fn = self.value(t)
        self.apply(fn, args, dest)

    def apply(self, fn: str, args: list, dest: str | None, value=None) -> None:
        """Statements that apply the value `fn` to each of `args` in turn,
        into `dest` as for `emit`; `value` evaluates each argument."""
        for i, a in enumerate(args):
            arg = (value or self.value)(a)
            if i + 1 == len(args) and dest is None:
                self.put(None, f"enter({fn}, {arg}, fuel)")
            else:
                v = dest if i + 1 == len(args) else self.temp()
                self.put(v, f"vapp({fn}, {arg}, fuel, sig)", calls=True)
                fn = v

    def apply_case(self, t, a, dest: str | None) -> None:
        """Statements that apply `t`, a J or K whose case is a literal
        `fun x => B` with B no lambda, to `a`, into `dest` as for `emit`.
        Where the proof is refl, the J step and the beta step are owed
        here and B runs on `(a,) + e` with no closure built for the case;
        a B that is a variable is read at once. Both arms evaluate `a`,
        so one longer than a line runs as a function of its own."""
        v = self.value(t.proof)
        owed = self.owed
        with self.block(f"if {v} is V_REFL:", owed + 1, keep=None):
            arg = self.once(a)
            self.owed += 1
            body = t.case.body
            if type(body) is Var:
                self.put(dest, arg if body.index == 0 else f"e[{body.index - 1}]")
            else:
                self.call(self.function(body), f"({arg}, ) + e", dest)
        with self.block("else:", owed, keep=self.owed):
            stuck = self.temp()
            self.put(stuck, f"_stuck(e, {self.name(t)}, {v}, fuel, sig)", calls=True)
            self.apply(stuck, [a], dest, self.once)
