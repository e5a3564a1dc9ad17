"""The public surface: every module-level public function or class of the
package has a caller outside the unit tests, and so has every option.

A definition counts as called when package code outside its own body, the
benchmark (``perfbench/*.py``) or the acceptance criteria
(``tests/test_acceptance.py``) read its name, as a plain name or as a module
attribute.  Imports do not count, so ``__init__``'s re-exports call nothing.
An option, a parameter with a default of a public function, of a public
method or of a public class's constructor, counts as used when one of those
callers passes it, by keyword or by position.
A module-level UPPER_CASE constant of the package or of the acceptance
criteria counts as read when one of those callers reads its name outside
its own assignment.  A public method or property of a package class counts
as called when one of those callers reads it as an attribute outside the
member's own body.

Every UPPER_CASE constant that a verdict reads, an acceptance criterion's
``ok`` or a command's ``passed``, is in ``LEDGER`` as derived (with the
docstring that proves it), a tolerance (with what it absorbs) or fitted.
The fitted ones are also in ``FITTED`` with the item that will remove them;
``FITTED`` may only shrink.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "haarweight"

FITTED = {
    "SWEEP_STABILITY_FACTOR": "ROADMAP item 10: a sweep verdict from a derived bound",
    "EXPONENT_BAND": "ROADMAP item 1: the equivalence claim from the embedding theorem",
    "CAR_EMBED_CAP": "ROADMAP items 1 and 10: the p=2 embedding corollary's constant",
}

LEDGER = {
    "COVERING_RATIO": ("derived", "dyadic.find_covering_cube: the one-third trick"),
    "WEAK_TYPE_CONSTANT": ("derived", "maximal.weak_type_check: the trace identity"),
    "PARSEVAL_TOL": ("tolerance", "round-off of the orthonormal Haar transforms"),
    "EXACT_CORE_TOL": ("tolerance", "round-off of the product rule and commutator case sum"),
    "RATE_TOL": ("tolerance", "round-off of the closed-form per-level ratio 2^alpha"),
    "EXPONENT_REL_TOL": ("tolerance", "a log2 fit over finite depths against its derived "
                                      "target 2 alpha"),
    "NECESSITY_REL_TOL": ("tolerance", "round-off of the (c) forms against the exact norms"),
    "REVERSE_AP_P2": ("tolerance", "round-off of the p=2 closed-form reducing operators"),
    "REVERSE_AP_GEN": ("tolerance", "the direction net of the p!=2 Lowner ellipses"),
    "SANDWICH_ETA": ("tolerance", "the p!=2 sandwich certificate on the net"),
    "SWEEP_STABILITY_FACTOR": ("fitted", "a sharpness band on measured / bound ratios"),
    "EXPONENT_BAND": ("fitted", "a band for the fitted (b)=>(a) A_2 exponent"),
    "CAR_EMBED_CAP": ("fitted", "an allowance for the embedding corollary's fit"),
}


def read_names(node):
    """Names that ``node`` reads, as plain names or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def top_level(paths):
    """(path, top-level statement) over the files."""
    return [(path, node) for path in paths for node in ast.parse(path.read_text()).body]


def public_definitions():
    return [(path, node) for path, node in top_level(sorted(PACKAGE.glob("*.py")))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def caller_files():
    return ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
            + sorted((ROOT / "perfbench").glob("*.py"))
            + [ROOT / "tests" / "test_acceptance.py"])


def uncalled():
    callers = top_level(caller_files())
    reads = [(path, node, read_names(node)) for path, node in callers]
    return {node.name for path, node in public_definitions()
            if not any(node.name in names for p, n, names in reads
                       if not (p == path and n.lineno == node.lineno))}


def test_every_public_name_has_a_caller():
    assert len(public_definitions()) > 50       # the parse found the package
    assert uncalled() == set()


def constant_files():
    return sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def constants():
    """(path, assignment, name) of the module-level UPPER_CASE constants of
    the package and of the acceptance criteria."""
    return [(path, node, t.id) for path, node in top_level(constant_files())
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Name) and t.id.isupper()]


def unread_constants():
    reads = [(path, node, read_names(node)) for path, node in top_level(caller_files())]
    return {name for path, node, name in constants()
            if not any(name in names for p, n, names in reads
                       if not (p == path and n.lineno == node.lineno))}


def test_every_constant_is_read():
    assert len(constants()) > 30                # the parse found the constants
    assert unread_constants() == set()


def public_members():
    """(path, member, "Class.member") for the public methods and properties
    of the package's public classes."""
    return [(path, m, f"{node.name}.{m.name}") for path, node in public_definitions()
            if isinstance(node, ast.ClassDef)
            for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]


def uncalled_members():
    reads = [(path, sub.lineno, sub.attr) for path in caller_files()
             for sub in ast.walk(ast.parse(path.read_text())) if isinstance(sub, ast.Attribute)]
    return {label for path, m, label in public_members()
            if not any(attr == m.name and not (p == path and m.lineno <= line <= m.end_lineno)
                       for p, line, attr in reads)}


def test_every_public_member_has_a_caller():
    assert len(public_members()) > 20           # the parse found the members
    assert uncalled_members() == set()


def options(fn, bound):
    """(position at a call, name) of fn's parameters with a default; the
    position is None for keyword-only ones.  ``bound`` counts the leading
    self or cls."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    return ([(i - bound, x.arg) for i, x in enumerate(pos) if i >= first]
            + [(None, x.arg) for x, v in zip(a.kwonlyargs, a.kw_defaults) if v is not None])


def is_dataclass(cls):
    return any("dataclass" in read_names(d) for d in cls.decorator_list)


def dataclass_options(cls):
    """(position, name) of the fields with a default in the generated
    constructor; ``field(init=False)`` is not a parameter."""
    fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
              and not (isinstance(s.value, ast.Call)
                       and any(k.arg == "init" for k in s.value.keywords))]
    return [(i, f.target.id) for i, f in enumerate(fields) if f.value is not None]


def optional_parameters():
    """(label, path, body, called name, own class, options) for every public
    callable; ``body`` is the node whose calls do not count (None for a
    generated constructor), and a call of ``cls`` counts for a constructor
    only inside its own class."""
    out = []
    for path, node in public_definitions():
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, path, node, node.name, None, options(node, 0)))
            continue
        if is_dataclass(node):
            out.append((node.name, path, None, node.name, node, dataclass_options(node)))
        for m in node.body:
            if not isinstance(m, ast.FunctionDef) or (m.name.startswith("_")
                                                      and m.name != "__init__"):
                continue
            static = any("staticmethod" in read_names(d) for d in m.decorator_list)
            init = m.name == "__init__"
            out.append((f"{node.name}.{m.name}", path, m, node.name if init else m.name,
                        node if init else None, options(m, 0 if static else 1)))
    return out


def calls():
    """(path, call node, called name) over every caller file."""
    out = []
    for path in caller_files():
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Call):
                f = sub.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                out.append((path, sub, name))
    return out


def passes(call, position, name):
    if any(k.arg in (name, None) for k in call.keywords):     # None: **kwargs
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(a, ast.Starred) for a in call.args))


def inside(path, node, p, sub):
    return node is not None and p == path and node.lineno <= sub.lineno <= node.end_lineno


def unused_options():
    found = calls()
    out = set()
    for label, path, body, name, owner, opts in optional_parameters():
        sites = [c for p, c, n in found if not inside(path, body, p, c)
                 and (n == name or n == "cls" and inside(path, owner, p, c))]
        out |= {f"{label}({name})" for pos, name in opts
                if not any(passes(c, pos, name) for c in sites)}
    return out


def test_every_option_has_a_caller():
    assert len(optional_parameters()) > 50      # the parse found the callables
    assert unused_options() == set()


def stored(node):
    """The names an assignment writes, read off its targets; none for other nodes."""
    if isinstance(node, ast.Assign):
        return set().union(*map(read_names, node.targets))
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return read_names(node.target)
    return set()


def verdict_reads(fn):
    """Names whose values reach a verdict of fn: ``passed``, the ``ok`` handed
    to an acceptance line and every value given to a "passed" key, then each
    name read by an assignment to a reached name or by the test of a branch
    that assigns one.  Loop ranges, which set how many instances a criterion
    draws, are left out."""
    reach, edges = {"passed"}, []
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_line":
            reach |= read_names(sub.args[1])
        elif isinstance(sub, ast.Dict):
            for key, value in zip(sub.keys, sub.values):
                if isinstance(key, ast.Constant) and key.value == "passed":
                    reach |= read_names(value)
        elif stored(sub) and sub.value is not None:
            edges.append((stored(sub), sub.value))
        elif isinstance(sub, ast.If):
            branch = [s for stmt in sub.body + sub.orelse for s in ast.walk(stmt)]
            edges.append((set().union(*map(stored, branch)), sub.test))
    grew = True
    while grew:
        grew = False
        for targets, value in edges:
            if targets & reach and not read_names(value) <= reach:
                reach |= read_names(value)
                grew = True
    return reach


def verdict_constants():
    """The constants of ``constants()`` that reach a verdict of a function of
    their files."""
    defined = {name for _, _, name in constants()}
    return {name for path in constant_files()
            for sub in ast.walk(ast.parse(path.read_text())) if isinstance(sub, ast.FunctionDef)
            for name in verdict_reads(sub) & defined}


def test_every_verdict_constant_is_derived_or_listed():
    found = verdict_constants()
    assert {"NECESSITY_REL_TOL", "EXPONENT_BAND"} <= found     # both kinds of verdict
    assert found == set(LEDGER)
    assert {kind for kind, _ in LEDGER.values()} == {"derived", "tolerance", "fitted"}
    assert {name for name, (kind, _) in LEDGER.items() if kind == "fitted"} == set(FITTED)
