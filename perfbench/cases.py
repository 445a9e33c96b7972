"""Workload definitions: which CLI invocations each workload runs.

A case is one `chernrep` argv.  Cases that must be refused carry the
`error[<code>]` and exit code the CLI contract (README "Exit codes")
demands; every other case is checked against its recorded stdout in
`references.json`.  The reasons for each choice are in README.md.
"""

import random
from dataclasses import dataclass

ANY = "*"  # in `refused`: any error code, or exit 1 or 2


@dataclass(frozen=True)
class Case:
    argv: tuple
    # (exit code, error code) for inputs that must end in a typed error
    refused: tuple | None = None

    @property
    def id(self):
        return " ".join(a if a and " " not in a else repr(a) for a in self.argv)


def _c(*argv, refused=None):
    return Case(tuple(argv), refused)


# Symbol-map bound: total_chern / chern_character over all five families, in
# text, --json and --basis generators, with virtual inputs and a torus.
CHERN_CLASSES = (
    _c("chern", "Sp6", "ext(2,std)", "--max-degree", "8", "--basis", "generators"),
    _c("chern", "SO7", "ext(2,std)", "--max-degree", "6", "--basis", "generators"),
    _c("chern", "SO8", "ext(2,std)", "--max-degree", "4", "--json"),
    _c("chern", "GL2", "sym(10,std)", "--max-degree", "11"),
    _c("chern", "SO5", "sym(2,std)", "--basis", "generators", "--json"),
    _c("chern", "GL4", "ext(2,std)", "--basis", "generators"),
    _c("chern", "GL3", "ext(2,std) - std", "--max-degree", "5", "--basis", "generators"),
    _c("chern", "T2", "weights[[1,2],[3,-1]] - weights[[0,1]]", "--max-degree", "6"),
    _c("ch", "SO8", "ext(2,std)", "--max-degree", "8"),
    _c("chern", "Sp4", "std*std", "--json"),
    _c("chern", "GL3", "sym(2,std)", "--basis", "generators", "--json"),
    _c("chern", "SO6", "ext(2,std)", "--max-degree", "4", "--basis", "generators"),
    _c("ch", "T2", "weights[[1,0],[0,1],[1,1]] - weights[[1,-1]]", "--max-degree", "5", "--json"),
)

# Truncated-model bound: check-prop, GL heavy in multiply/echelon, Sp/SO
# heavy in gamma and reduce.  GL3 at p=2, d=5 keeps the d=5 model of the
# ROADMAP's GL3 5/5 target at a quarter of its cost, so that no single case
# dominates a pass and every case is sampled more than once (see README.md).
CHECK_PROP = (
    _c("check-prop", "GL3", "--p-max", "2", "--degree", "5"),
    _c("check-prop", "GL3", "--p-max", "4", "--degree", "4"),
    _c("check-prop", "Sp6", "--p-max", "3", "--degree", "3"),
    _c("check-prop", "SO6", "--p-max", "3", "--degree", "3"),
    _c("check-prop", "SO8", "--p-max", "2", "--degree", "2"),
    _c("check-prop", "Sp4", "--p-max", "5", "--degree", "5"),
    _c("check-prop", "SO5", "--p-max", "4", "--degree", "4"),
    _c("check-prop", "SO4", "--p-max", "4", "--degree", "4", "--json"),
)

# Start-up bound: short calls over all six subcommands and five families.
# Each stratum holds interchangeable calls of similar cost; a seed draws the
# stated number from each, so the mix of costs is the same for every seed.
CHAR_OPS_STRATA = (
    (5, (
        _c("adams", "-k", "2", "GL3", "sym(2,std)"),
        _c("adams", "-k", "3", "Sp4", "ext(2,std)", "--json"),
        _c("adams", "-k", "2", "SO5", "std*std"),
        _c("adams", "-k", "5", "SO6", "std - ext(2,std)"),
        _c("adams", "-k", "3", "T2", "weights[[1,2],[0,-1]]", "--json"),
        _c("adams", "-k", "4", "SO7", "sym(2,std)", "--json"),
    )),
    (5, (
        _c("lambda", "-p", "2", "GL3", "sym(2,std)"),
        _c("lambda", "-p", "3", "SO7", "std", "--json"),
        _c("lambda", "-p", "2", "Sp4", "std*std"),
        _c("lambda", "-p", "3", "GL2", "std - dual(std)"),
        _c("lambda", "-p", "2", "T3", "weights[[1,0,0],[0,1,0],[0,0,1]]"),
        _c("lambda", "-p", "2", "SO6", "ext(2,std)", "--json"),
    )),
    (4, (
        _c("rewrite", "GL3", "x1^2 + x2^2 + x3^2"),
        _c("rewrite", "Sp4", "x1^4 + x2^4", "--json"),
        _c("rewrite", "SO5", "x1^2*x2^2 + 1/2*x1^2 + 1/2*x2^2"),
        _c("rewrite", "SO4", "x1*x2 + x1^2 + x2^2", "--json"),
        _c("rewrite", "GL2", "x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3"),
    )),
    (3, (
        _c("ch", "T2", "weights[[1,0],[0,1],[1,1]]", "--max-degree", "4"),
        _c("ch", "T3", "weights[[1,-1,0],[0,1,-1]] - weights[[0,0,0]]", "--json", "--max-degree", "3"),
        _c("ch", "GL2", "sym(3,std)", "--max-degree", "3"),
        _c("ch", "Sp4", "std", "--max-degree", "4", "--json"),
        _c("ch", "Sp6", "ext(2,std)", "--max-degree", "6"),
    )),
    (3, (
        _c("chern", "GL2", "std", "--max-degree", "2", "--basis", "generators"),
        _c("chern", "Sp4", "std", "--max-degree", "4", "--basis", "generators"),
        _c("chern", "SO5", "std", "--json"),
        _c("chern", "T2", "weights[[1,0],[0,1]]", "--max-degree", "2"),
        _c("chern", "SO4", "std", "--basis", "generators", "--json"),
    )),
    (3, (
        _c("check-prop", "GL2", "--p-max", "2", "--degree", "2"),
        _c("check-prop", "T2", "--p-max", "2", "--degree", "2", "--json"),
        _c("check-prop", "SO4", "--p-max", "2", "--degree", "2"),
        _c("check-prop", "Sp4", "--p-max", "2", "--degree", "2", "--json"),
        _c("check-prop", "SO5", "--p-max", "2", "--degree", "2"),
    )),
    (4, (
        _c("chern", "GL2", "foo", refused=(1, "parse")),
        _c("chern", "Sp3", "std", refused=(1, "parse")),
        _c("chern", "GL2", "weights[[1,0,0]]", refused=(1, "parse")),
        _c("adams", "-k", "0", "GL2", "std", refused=(1, "usage")),
        _c("check-prop", "GL2", "--p-max", "2", "--degree", "0", refused=(1, "usage")),
        _c("rewrite", "GL2", "x1", refused=(2, "not-invariant")),
        _c("chern", "GL2", "weights[[1,0]]", "--basis", "generators", refused=(2, "not-invariant")),
        _c("chern", "T2", "weights[[1,0]]", "--basis", "generators", refused=(2, "no-generators")),
    )),
    # The one heavy call: 175 KB of output.
    (1, (_c("lambda", "-p", "5", "SO10", "ext(2,std)"),)),
    # Known defect: the seed lets ValueError escape cli.run.  The CLI
    # contract asks for a typed error; no code exists for it yet, so any
    # error[<code>] line with a documented refusal exit (1 or 2) is accepted.
    (1, (_c("chern", "T2", "std", refused=(ANY, ANY)),)),
)

WORKLOADS = ("chern-classes", "check-prop", "char-ops")


def pool():
    """Every distinct case any workload can run, in a fixed order."""
    out = list(CHERN_CLASSES) + list(CHECK_PROP)
    for _, cases in CHAR_OPS_STRATA:
        out.extend(cases)
    return out


def workload_cases(name, seed):
    """The cases one pass of a workload runs, ordered (and for char-ops,
    drawn) by the seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "chern-classes":
        cases = list(CHERN_CLASSES)
    elif name == "check-prop":
        cases = list(CHECK_PROP)
    elif name == "char-ops":
        cases = [c for count, stratum in CHAR_OPS_STRATA for c in rng.choices(stratum, k=count)]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(cases)
    return cases
