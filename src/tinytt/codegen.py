"""Function definitions compiled to Python source.

A `Signature` starts cold and tiers up in the middle of the first item
whose fuel drops below `tier_at` (`semantics.Fuel`); from then on it calls
`compile_lambda` on each global defined as `fun x1 ... xk => B` that it
has forced or forces, so a run that stays cheap never imports this
module. `B`, and each lambda body inside it, becomes one Python function
`f(env, fuel, sig)` that does what `eval_term` does, step for step, so a
run may switch to it at any step: the same order of evaluation, the same
globals forced, and the budget exhausted at the same step. `sig.code`
keeps it under the body term it evaluates, the one place compiled code
is found: `eval_term` makes a closure of that body with the function as
its body, and runs it; generated code builds one with the function
directly, except for a curried lambda, whose inner closure `eval_term`
makes. It charges fuel once per straight-line run: the beta and iota
steps it passes are counted while it generates, and charged together
right before the next statement that can read fuel or force a global,
that is, before a call, a return, a loop or the end of a branch. A pure
test such as `v is V_REFL` carries the count into both arms; after a J,
K or projection the reducing arm goes on owing it, and the stuck arm
gives it back, a J or K's once it has charged for its `_stuck` call. A
global reference that finds the global cached costs nothing; one that
forces it passes the steps owed to `Signature.value_of`, which charges
them first, so that forcing sees the fuel the interpreter would, and
gives them back to be charged with the rest. A function reads each
global once on a path: a later reference on that path takes the
temporary of the first.

A lambda the code can see applied takes one path, `_Gen.beta`: each
argument is evaluated and owes its beta step, and the body runs with no
closure built. The lambdas seen are a global `fun x1 ... xk => B`
called with k or more arguments, the literal case `fun x1 ... xk => B`
of a J or K applied to k or more, as in the paper's `coe`, where the
proof is refl, and a natElim's literal step `fun _ r => B`, once per
fold. A plain J or K is the same case with no arguments, run in place.
A leaf body, one that makes no call where it reduces (`_reads`), runs in
place too: its variables read the arguments' temporaries, a stuck J or K
builds the environment as a tuple for its `_stuck`, and a stuck
projection extends its value as `eval_term` does; a lambda argument that
the leaf reads at most once on every path is built where it is read. The
paradox's `coe`, `subst` and `coe_eq` are leaves, so its loop runs one
compiled function per turn, not four, and builds subst's `P` only where
subst's J is stuck. Any other body runs as its own function on the
extended environment, since in place it would copy its calls and loops
into every caller: `mul` calls `add`'s function.

A call in tail position returns `(env, body)` to `eval_term`'s loop, so
a diverging definition runs at constant stack depth. In a global's body,
a tail call whose callee is a closure of that body, `me`, read from
`sig.code` on entry, jumps to the function's top when the fuel covers
the steps owed and the beta step: `falsum`'s loop turns in one frame. A
natElim peels its target's successors and folds upward in a loop, as
`eval_term` does. Both branches of a natElim need its zero case; one
that takes more than a line becomes a function they share, so the source
grows linearly with nesting. The other terms (Π, Σ, `Id`, pairs,
universes and `absurd`) are handed to `eval_term` itself, and a
definition whose body is one of them is not compiled at all. A module
names the functions in `sig.code` instead of generating them again, so a
global that is no leaf, called before it is forced, is generated into
its caller's module. The functions read `tinytt.semantics` as their
globals and hold the objects they name in closure cells, so no reference
cycle keeps a finished signature alive.
"""

from __future__ import annotations

from contextlib import contextmanager

from . import semantics
from .semantics import _CONSTS
from .syntax import App, ElimJ, ElimK, Fst, Global, Lambda, NatElim, Snd, Succ, Var

# The terms whose evaluation the generated code does itself. A definition
# whose body is none of these, such as a type former or a pair, stays with
# `eval_term`: its body builds one value per use, and on the benchmark's
# workloads the compile, about 0.2 ms a definition, costs more than it saves.
_OWN = (App, ElimJ, ElimK, Fst, Snd, NatElim, Succ, Global, Var, *_CONSTS)


def compile_lambda(sig, lam: Lambda) -> None:
    """Put in `sig.code` the function of `lam`'s stripped body, and of every
    lambda body inside it, unless it is there already; a body nested too
    deeply for Python to compile stays with the interpreter."""
    body = _strip(lam.body)[0]
    if body not in sig.code and type(body) in _OWN:
        gen, made = _Gen(sig), {}
        try:
            gen.function(body)
            source = "\n".join([f"def make({', '.join(gen.names.values())}):", *gen.module,
                                f"    return {', '.join(gen.bodies.values())},"])
            exec(compile(source, "<tinytt>", "exec"), vars(semantics), made)
            sig.code.update(zip(gen.bodies, made["make"](*gen.named)))
        except (RecursionError, SyntaxError):
            pass


def _strip(t):
    """The body under `t`'s leading lambdas, and how many there are."""
    k = 0
    while type(t) is Lambda:
        t, k = t.body, k + 1
    return t, k


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
        # The environment: variables bound in place, then a tuple ("" if none).
        self.env = (), "e"
        # The temporary that holds each global read on every path to here.
        self.known: dict[str, str] = {}
        # How many tail calls jump to the top so far; None outside f0.
        self.jumps: int | None = None

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
            self.line(f"if fuel.remaining < {n}: fuel.spend({n})", f"fuel.remaining -= {n}")
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
        known = dict(self.known)
        yield
        if keep is not None:
            self.charge(keep)
        self.indent = self.indent[:-4]
        # A global first read in the body is unread on the other path.
        self.known = known

    def put(self, dest: str | None, expr: str, calls: bool = False) -> None:
        """Return `expr`, or assign it to `dest`; an `expr` that `calls`
        something may read fuel, so the steps owed are charged first."""
        if dest is None or calls:
            self.charge()
        self.line(("return " if dest is None else f"{dest} = ") + expr)

    def scope(self) -> str:
        """An expression for the environment as a tuple."""
        front, rest = self.env
        if not front:
            return rest
        names = "(" + "".join(v + ", " for v in front) + ")"
        return f"{names} + {rest}" if rest else names

    def force(self, name: str) -> str:
        """An expression for the value of the global `name`."""
        entry = self.name(self.sig.entries[name])
        return f"{entry}.cached or sig.value_of({name!r}, fuel, {self.owed})"

    def function(self, body) -> str:
        """The name of the function that evaluates `body`, stripped: the
        one `sig.code` holds, or else one generated into this module."""
        body = _strip(body)[0]
        if body in self.sig.code:
            return self.name(self.sig.code[body])
        if body not in self.bodies:
            self.bodies[body] = name = f"f{len(self.bodies)}"
            outer = self.lines, self.indent, self.owed, self.env, self.known, self.jumps
            self.lines, self.indent, self.owed = [f"    def {name}(e, fuel, sig):"], "        ", 0
            self.env, self.known, self.jumps = ((), "e"), {}, 0 if name == "f0" else None
            self.emit(body, None)
            if self.jumps:
                self.lines[1:] = [f"        me = sig.code.get({self.name(body)})", "        while True:",
                                  *("    " + text for text in self.lines[1:])]
            self.module += self.lines
            self.lines, self.indent, self.owed, self.env, self.known, self.jumps = outer
        return self.bodies[body]

    def emit(self, t, dest: str | None) -> None:
        """Statements that evaluate `t` into `dest`; with `dest` None, they
        return its value, or a tail call as (env, body)."""
        cls = type(t)
        if cls is App:
            self.app(t, dest)
        elif cls in (ElimJ, ElimK, Fst, Snd):
            self.elim(t, [], dest)
        elif cls is NatElim:
            self.natelim(t, dest)
        elif cls is Succ:
            self.put(dest, f"VSucc({self.value(t.arg)})")
        elif cls is Global:
            if dest is None:
                # The cached path returns at once, so nothing may stay owed.
                self.charge()
            self.put(dest, self.force(t.name))
        elif cls is Lambda:
            self.put(dest, self.closure(t))
        elif cls is Var or cls in _CONSTS:
            self.put(dest, self.value(t))
        elif dest is None:
            self.put(dest, f"{self.scope()}, {self.name(t)}")
        else:
            self.put(dest, f"eval_term({self.scope()}, {self.name(t)}, fuel, sig)", calls=True)

    def closure(self, t: Lambda) -> str:
        """An expression that builds the closure of `t` on the environment.
        `eval_term` makes an inner lambda's closure, and finds `f` for it."""
        f = self.function(t.body)
        f = self.name(t.body) if type(t.body) is Lambda else f
        return f"Closure({t.name!r}, {self.scope()}, {f})"

    def value(self, t) -> str:
        """An expression for `t`'s value that has no effects and is the same
        object each time it is read, after the statements that compute it;
        a global read on every path to here is its temporary. The one value
        that is not a temporary is the `Closure(...)` of a lambda argument
        built late (`beta`), which its leaf reads at most once a path."""
        cls = type(t)
        if cls is Var:
            front, rest = self.env
            i = t.index
            return front[i] if i < len(front) else f"{rest}[{i - len(front)}]"
        if cls in _CONSTS:
            return self.name(_CONSTS[cls])
        if cls is Global and t.name in self.known:
            return self.known[t.name]
        v = self.temp()
        self.emit(t, v)
        if cls is Global:
            self.known[t.name] = v
        return v

    def call(self, code: str, dest: str | None) -> None:
        """Statements that run the function `code` on the environment, as
        for `emit`."""
        if dest is None:
            self.put(dest, f"{self.scope()}, {code}")
        else:
            self.put(dest, f"{code}({self.scope()}, fuel, sig)", calls=True)
            self.line(f"if type({dest}) is tuple: {dest} = eval_term(*{dest}, fuel, sig)")

    def shared(self, t, dest: str | None) -> None:
        """As `emit`, but a term longer than a line runs as a function of its
        own, so that code which evaluates `t` twice holds its code once."""
        if type(t) in (Var, Lambda, Global) or type(t) in _CONSTS:
            self.emit(t, dest)
        else:
            self.call(self.function(t), dest)

    def once(self, t) -> str:
        """As `value`, for code that evaluates `t` in two branches: a term
        longer than a line runs as a function of its own."""
        if type(t) in (Var, Lambda, Global) or type(t) in _CONSTS:
            return self.value(t)
        v = self.temp()
        self.call(self.function(t), v)
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
                body, k = _strip(t.scase)
                if k == 2:
                    # `fun _ r => B` on `m` and `acc`, values already.
                    self.beta(body, [m, acc], str, self.env, acc)
                else:
                    self.apply(scase, [m, acc], acc, str)
            self.put(dest, acc)

    def app(self, t: App, dest: str | None) -> None:
        args = []
        while type(t) is App:
            args.append(t.arg)
            t = t.fn
        args.reverse()
        # The k lambdas of a global's body or of a J or K's literal case.
        k = 0
        if type(t) is Global:
            body, k = _strip(self.sig.entries[t.name].body)
            if type(body) not in _OWN:
                k = 0
        elif type(t) in (ElimJ, ElimK):
            k = _strip(t.case)[1]
        if not 0 < k <= len(args):
            self.apply(self.value(t), args, dest)
            return
        fn = self.temp() if len(args) > k else dest
        if type(t) is Global:
            # A static call: force the global, then bind k arguments.
            self.value(t)
            self.beta(body, args[:k], self.value, ((), ""), fn)
        else:
            self.elim(t, args[:k], fn)
        self.apply(fn, args[k:], dest)

    def apply(self, fn: str, args: list, dest: str | None, value=None, stuck=False) -> None:
        """Statements that apply the value `fn` to each of `args` in turn,
        into `dest` as for `emit`; `value` evaluates each argument. A tail
        call jumps if `fn` is a closure of `me`, which a `stuck` one is not."""
        for i, a in enumerate(args):
            arg = (value or self.value)(a)
            if i + 1 == len(args) and dest is None:
                if self.jumps is not None and not stuck:
                    n, self.jumps = self.owed + 1, self.jumps + 1
                    self.line(f"if fuel.remaining >= {n} and type({fn}) is Closure and {fn}.body is me:",
                              f"    fuel.remaining -= {n}; e = ({arg},) + {fn}.env; continue")
                self.put(None, f"enter({fn}, {arg}, fuel)")
            else:
                v = dest if i + 1 == len(args) else self.temp()
                self.put(v, f"vapp({fn}, {arg}, fuel, sig)", calls=True)
                fn = v

    def elim(self, t, args: list, dest: str | None) -> None:
        """Statements that evaluate `t`, a J, K or projection, and apply it
        to `args`, into `dest` as for `emit`. A J or K's case is then a
        literal lambda for each argument, and `beta` runs its body where
        the proof is refl. Both arms evaluate the arguments, so one longer
        than a line runs as a function of its own."""
        j = type(t) is ElimJ or type(t) is ElimK
        v = self.value(t.proof if j else t.target)
        owed = self.owed
        # The reducing arm keeps what it owes; the stuck arm gives back what
        # it did not spend of that, a J or K's after its `_stuck` call.
        test = f"if {v} is V_REFL:" if j else f"if type({v}) is VPair:"
        with self.block(test, owed + 1, keep=None):
            if j:
                self.beta(_strip(t.case)[0] if args else t.case, args, self.once, self.env, dest)
            else:
                self.put(dest, f"{v}.{'first' if type(t) is Fst else 'second'}")
        with self.block("else:", owed, keep=self.owed):
            if j:
                stuck = self.temp() if args else dest
                self.put(stuck, f"_stuck({self.scope()}, {self.name(t)}, {v}, fuel, sig)", calls=True)
                self.apply(stuck, args, dest, self.once, stuck=True)
            else:
                self.put(dest, f"_extend({v}, {type(t).__name__})")

    def beta(self, body, args: list, value, env, dest: str | None) -> None:
        """Statements that run `body` under one lambda per argument, into
        `dest` as for `emit`, with no closure built: each of `args` is
        evaluated by `value` and owes its beta step, and `body` runs on
        them in front of the environment `env`. A leaf body runs here,
        reading each argument where `value` left it, or building a lambda
        that it reads at most once on every path where it is read; any
        other body runs as its function."""
        leaf = not args or _reads(body, 0) is not None
        bound = ()
        for n, a in enumerate(args, 1):
            late = leaf and type(a) is Lambda and _reads(body, len(args) - n) <= 1
            bound = (self.closure(a) if late else value(a), *bound)
            self.owed += 1
        outer, self.env = self.env, (bound + env[0], env[1])
        if leaf:
            self.emit(body, dest)
        else:
            self.call(self.function(body), dest)
        self.env = outer


def _reads(t, i: int) -> int | None:
    """How many times, at most, the code of `t` reads its variable `i` on
    one path, or None if `t` is no leaf. A leaf makes no call where it
    reduces: a variable, a constant, a projection of a leaf, or a J or K
    on a leaf proof whose case is a leaf, applied to a variable or constant
    per lambda of the case. A stuck J or K evaluates the rest, such as its
    motive, on its environment, which reads every variable once, and reads
    its own arguments; a reducing one reads an argument once per read of
    its lambda in the case. A variable scrutinee is read by the test and
    again by either arm."""
    # Whether each argument, in order, is the variable `i`.
    hits = []
    while type(t) is App:
        if type(t.arg) is not Var and type(t.arg) not in _CONSTS:
            return None
        t, hits = t.fn, [type(t.arg) is Var and t.arg.index == i, *hits]
    cls = type(t)
    if hits and cls is not ElimJ and cls is not ElimK:
        return None
    if cls is Var or cls in _CONSTS:
        return int(cls is Var and t.index == i)
    if cls is Fst or cls is Snd:
        arms, scrutinee = 0, t.target
    elif cls is ElimJ or cls is ElimK:
        case, k = _strip(t.case) if hits else (t.case, 0)
        reduced, scrutinee = _reads(case, i + k), t.proof
        if k != len(hits) or reduced is None:
            return None
        reduced += sum(_reads(case, k - 1 - p) for p, hit in enumerate(hits) if hit)
        arms = max(reduced, 1 + sum(hits))
    else:
        return None
    n = _reads(scrutinee, i)
    return None if n is None else n * (1 + (type(scrutinee) is Var)) + arms
