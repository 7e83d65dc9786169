"""The config format of the ``tentomo`` command: one parameter table per suite.

``resolve`` reads a suite entry through its table in ``SUITES``: it rejects
unknown keys, checks every value (defaults too) and fills in the defaults.
``validate`` and ``run`` both call it, so ``validate`` accepts exactly what
the runners execute, and the runners read the complete dict it returns.
``ConfigError.exit_code`` is 2 for the top level, an unknown suite or a suite
named twice, and 3 for a suite parameter.
"""

import json
import math
from collections import namedtuple


class ConfigError(ValueError):
    def __init__(self, message, exit_code):
        super().__init__(message)
        self.exit_code = exit_code


#: ``ok(value, params)`` also sees the parameters resolved before the value,
#: which carries the cross-key rules; ``text`` names the accepted values.
Check = namedtuple("Check", "text ok")


def integer(low, high=math.inf):
    span = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
    return Check(f"an integer {span}", lambda v, p=None: type(v) is int and low <= v <= high)


def listing(text, item, least=0):
    return Check(text, lambda v, p: type(v) is list and len(v) >= least and all(map(item, v)))


def _john_tolerance(case):
    return 1e-9 if case["m"] == 1 else 1e-8


COUNT = integer(1)
BOOL = Check("true or false", lambda v, p: type(v) is bool)
PAIRS = listing("a list of [m, k] integer pairs >= 0", lambda c: type(c) is list
                and len(c) == 2 and all(map(integer(0).ok, c)))
MK = Check("a list of [m, k] integer pairs with 0 <= k <= m",
           lambda v, p: PAIRS.ok(v, p) and all(k <= m for m, k in v))
RANKS = listing("a list of integers >= 1", integer(1).ok)
DEGREES = Check("a list of >= 2 strictly increasing integers >= 1",
                lambda v, p: RANKS.ok(v, p) and len(v) >= 2 and v == sorted(set(v)))
# a tolerance may tighten its default, never loosen it
TOLERANCE = Check("a number in (0, 1e-05]",
                  lambda v, p: type(v) in (int, float) and 0 < v <= 1e-5)
JOHN_TOLERANCE = Check("a number in (0, 1e-9] for m = 1, else (0, 1e-8]",
                       lambda v, p: type(v) in (int, float) and 0 < v <= _john_tolerance(p))
# the lists a suite runs over must not all be empty
PROP_CASES = Check(MK.text + ", not empty if lemma_cases is",
                   lambda v, p: MK.ok(v, p) and bool(v or p["lemma_cases"]))
GRID_RANKS = Check(RANKS.text + ", not empty if no normal case runs",
                   lambda v, p: RANKS.ok(v, p)
                   and bool(v or p["normal_consistency"] and p["normal_cases"]))
UCP_SAMPLES = (("num_lines", 30, COUNT, "lines sampled through U"),
               ("num_points", 10, COUNT, "points sampled in U"))
UCP_N = ("n", 2, integer(2, 3), "dimension")

# The ibp and john bounds keep a run in memory and within reach of its
# tolerance (README, "Each John case").
# Each table row is (key, default, check, description); rows resolve in order.
# A default may be a function of the parameters resolved before it, and a
# check may be a nested table, for a nonempty list of objects.
JOHN_CASE = (
    ("n", 2, integer(2, 4), "dimension"),
    ("m", 1, integer(1, 4), "tensor rank"),
    ("lines", 20, COUNT, "random lines through the ball of radius 1.5"),
    ("tolerance", _john_tolerance, JOHN_TOLERANCE, "John-relation tolerance"))
SUITES = {
    "identities.algebra": (
        ("trials", 50, COUNT, "trials of the R skew-symmetry and W/R potential checks"),
        ("roundtrip_trials", 20, COUNT, "trials of the W <-> R round trips")),
    "identities.ibp": (
        ("n_values", [2, 3], listing("a nonempty list of integers in [2, 4]",
                                     integer(2, 4).ok, 1), "dimensions n"),
        ("s_values", [1, 2, 3, 4], listing("a nonempty list of integers in [1, 6]",
                                           integer(1, 6).ok, 1), "derivative orders s"),
        ("trials_per_case", 20, COUNT, "random functions per (n, s)")),
    "identities.john": (
        ("cases", [{"m": 1}, {"m": 2}], JOHN_CASE, "objects with the keys of a John case"),),
    "identities.prop-ray": (
        ("m_values", [1, 2], listing("a nonempty list of integers in [1, 2]",
                                     integer(1, 2).ok, 1), "tensor ranks"),
        ("degrees", [20, 40, 60], DEGREES, "rule degrees; the tolerance holds at the last"),
        ("tolerance", 1e-5, TOLERANCE, "key-identity tolerance")),
    "identities.mrt": (
        ("lemma_cases", [[1, 1], [2, 1], [2, 2]], MK, "(m, k) of the moment identity"),
        ("prop_cases", [[1, 1], [2, 1]], PROP_CASES, "(m, k) of the momentum key identity"),
        ("degrees", [20, 40, 60], DEGREES, "rule degrees; the tolerance holds at the last"),
        ("tolerance", 1e-5, TOLERANCE, "identity tolerance")),
    "decompose": (
        ("N", 128, integer(16), "grid points per axis"),
        ("L", 4.0, Check("a number >= 4", lambda v, p: type(v) in (int, float)
                         and 4 <= v < math.inf), "box side; the fields have support radius 1"),
        ("normal_consistency", True, BOOL, "run the convolution-vs-angular checks"),
        ("normal_cases", [[0, 0], [1, 0], [1, 1]], PAIRS, "(m, k) of those checks"),
        ("refine", True, BOOL, "also check that the (0, 0) case improves at 2N"),
        ("m_values", [1, 2], GRID_RANKS, "ranks of the decomposition checks")),
    "ucp.ray": (UCP_N, ("m", 1, integer(1, 3), "tensor rank"), *UCP_SAMPLES),
    "ucp.mrt": (
        UCP_N, ("m", 2, integer(1, 3), "tensor rank"),
        ("k", 1, Check("an integer with 0 <= k < m",
                       lambda v, p: integer(0, p["m"] - 1).ok(v)), "momentum order"),
        *UCP_SAMPLES),
    "ucp.trt": (
        ("n", 3, integer(3, 6), "dimension"),
        ("m", 1, integer(1, 4), "tensor rank"),
        *UCP_SAMPLES),
}
TOP_LEVEL = (
    ("schema", None, Check("1", integer(1, 1).ok), "config format version"),
    ("seed", 0, integer(0), "root of every random stream; `run --seed` overrides it"),
    ("output_dir", "tentomo_out",
     Check("a nonempty string", lambda v, p: type(v) is str and v != ""),
     "where `run` writes; `OUTPUT_DIR` and `run --out` override it"),
    ("timing_in_tables", False, BOOL, "fill the CSV seconds column"),
    ("suites", None, listing("a nonempty list", lambda entry: True, 1), "the suite entries"))


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", 2)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column "
                          f"{exc.colno}: {exc.msg}", 2)


def validate_config(doc):
    """The resolved top level of ``doc``, after every suite entry resolved."""
    top = _resolve_table(TOP_LEVEL, doc, "config", 2)
    first = {}
    for pos, entry in enumerate(top["suites"]):
        resolve(entry, f"suites[{pos}]")
        # a suite's table is named after it, so a second entry would overwrite it
        name = entry["suite"]
        if name in first:
            raise ConfigError(f"suites[{pos}]: suite {name!r} is already suites"
                              f"[{first[name]}]; name each suite once", 2)
        first[name] = pos
    return top


def resolve(entry, where="suite entry"):
    """The complete parameter dict of one suite entry, without 'suite'."""
    name = entry.get("suite") if isinstance(entry, dict) else None
    if not (isinstance(name, str) and name in SUITES):
        raise ConfigError(f"{where}: must be an object whose 'suite' is one of "
                          + ", ".join(SUITES) + f"; got {name!r}", 2)
    return _resolve_table(SUITES[name], {k: v for k, v in entry.items() if k != "suite"},
                          f"{where} ({name})", 3)


def _resolve_table(table, given, where, code):
    if type(given) is not dict:
        raise ConfigError(f"{where} must be a JSON object", code)
    known = [row[0] for row in table]
    for key in given:
        if key not in known:
            raise ConfigError(f"{where}: unknown key {key!r}; known: {', '.join(known)}", code)
    params = {}
    for key, default, check, _ in table:
        value = given[key] if key in given else \
            default(params) if callable(default) else default
        if not isinstance(check, Check):  # a nested table
            if not (type(value) is list and value):
                raise ConfigError(f"{where}: '{key}' must be a nonempty list of objects", code)
            value = [_resolve_table(check, item, f"{where}: {key}[{i}]", code)
                     for i, item in enumerate(value)]
        elif not check.ok(value, params):
            got = repr(value) if key in given else f"{value!r}, the default"
            raise ConfigError(f"{where}: '{key}' must be {check.text}; got {got}", code)
        params[key] = value
    return params
