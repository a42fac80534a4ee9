"""Error lines for binding faults, bad flag values, faults between the files of
one check, the gauge check's context-set rule, a joint too small for a
direction and `construct` rows at a zero-mass base, pinned byte for byte.

Each case writes one faulty input next to the bundled f3 joint (X, Y, Z over
"0"/"1") or the sparse helper joint, or passes one bad flag value, runs it
through main() in process and pins the exit code and the exact stderr line;
stdout stays empty. The bindings a message names (such as X=0,Y=0,Z=0) are
part of the pin, so a reader that renders a raw dict or reorders its checks
fails here. Files the loader cannot read pin only the line's `error: <path>: `
prefix, since the rest is the wording of the Python version's own exception.
"""

from __future__ import annotations

import json
import sys

import pytest

from softtilt import countable, fixture_path
from softtilt.cli import main
from helpers import joint_to_doc, sparse_joint

F3 = str(fixture_path("f3.json"))
BITS = ("0", "1")


def joint_doc() -> dict:
    with open(F3, encoding="utf-8") as fh:
        return json.load(fh)


def entries_doc(value_key: str) -> dict:
    """A complete x_given_yz reward (value_key "r") or interaction ("i") document."""
    entries = []
    for y in BITS:
        for z in BITS:
            for x in BITS:
                entry = {"context": {"Y": y, "Z": z}, "outcome": {"X": x}, value_key: 0.0}
                if value_key == "r":
                    entry["V"] = 0.0
                entries.append(entry)
    return {"direction": "x_given_yz", "alpha": 1.0, "entries": entries}


def with_mass(*cells) -> dict:
    doc = joint_doc()
    doc["mass"] = doc["mass"][: 8 - len(cells)] + list(cells)
    return doc


def with_entry(value_key: str, **fields) -> dict:
    """The document with its first entry's fields replaced."""
    doc = entries_doc(value_key)
    doc["entries"][0] = {**doc["entries"][0], **fields}
    return doc


def with_extra_entry(value_key: str, entry) -> dict:
    doc = entries_doc(value_key)
    doc["entries"].append(entry)
    return doc


def with_entry_at(value_key: str, at: int, **fields) -> dict:
    """The document with the fields of entry `at` replaced; the entries before
    it name their bindings first, so the reader has seen them."""
    doc = entries_doc(value_key)
    doc["entries"][at] = {**doc["entries"][at], **fields}
    return doc


# (label, kind, document, exit code, stderr); kind names the file the
# document is passed as
JOINT_CASES = [
    ("joint-empty-assign", with_mass({"assign": {}, "p": 0.2}), 2,
     "error: 'assign' must be a nonempty object\n"),
    ("joint-assign-not-object", with_mass({"assign": ["X", "0"], "p": 0.2}), 2,
     "error: 'assign' must be a nonempty object\n"),
    ("joint-unknown-variable", with_mass({"assign": {"W": "0", "Y": "1", "Z": "1"}, "p": 0.2}), 2,
     "error: unknown variable 'W'\n"),
    ("joint-unknown-label", with_mass({"assign": {"X": "7", "Y": "1", "Z": "1"}, "p": 0.2}), 2,
     "error: label '7' is not in the alphabet of 'X'\n"),
    ("joint-non-string-label", with_mass({"assign": {"X": 1, "Y": "1", "Z": "1"}, "p": 0.2}), 2,
     "error: 'assign' must map strings to strings\n"),
    ("joint-list-label", with_mass({"assign": {"X": ["1"], "Y": "1", "Z": "1"}, "p": 0.2}), 2,
     "error: 'assign' must map strings to strings\n"),
    ("joint-missing-variable", with_mass({"assign": {"X": "1", "Z": "1"}, "p": 0.2}), 2,
     "error: assignment X=1,Z=1 does not bind 'Y'\n"),
    ("joint-extra-variable",
     with_mass({"assign": {"X": "1", "Y": "1", "Z": "1", "W": "0"}, "p": 0.2}), 2,
     "error: unknown variable 'W'\n"),
    ("joint-duplicate-cell", with_mass({"assign": {"Z": "0", "Y": "0", "X": "0"}, "p": 0.2}), 2,
     "error: duplicate assignment X=0,Y=0,Z=0\n"),
    ("joint-negative-mass", with_mass({"assign": {"Z": "1", "Y": "1", "X": "1"}, "p": -0.2}), 2,
     "error: negative mass -0.2 at X=1,Y=1,Z=1\n"),
    ("joint-bad-p-after-bad-label",
     with_mass({"assign": {"X": "7", "Y": "1", "Z": "0"}, "p": 0.05},
               {"assign": {"X": "1", "Y": "1", "Z": "1"}, "p": "x"}), 2,
     "error: 'p' at X=1,Y=1,Z=1 must be a finite number\n"),
    ("joint-bad-total", with_mass({"assign": {"Y": "1", "X": "1", "Z": "1"}, "p": 0.3}), 2,
     "error: masses sum to 1.1, off 1 by more than 1e-09\n"),
]

ENTRY_CASES = [
    ("entry-not-object", lambda k: with_extra_entry(k, ["Y", "0"]), 2,
     "error: each entry must be an object\n"),
    ("entry-context-not-object", lambda k: with_entry(k, context="Y=0,Z=0"), 2,
     "error: 'context' must be a nonempty object\n"),
    ("entry-context-wrong-group", lambda k: with_entry(k, context={"Y": "0"}), 2,
     "error: 'context' must bind exactly ['Y', 'Z'], got Y=0\n"),
    ("entry-context-extra-variable",
     lambda k: with_entry(k, context={"Z": "0", "Y": "0", "X": "0"}), 2,
     "error: 'context' must bind exactly ['Y', 'Z'], got X=0,Y=0,Z=0\n"),
    ("entry-context-unknown-label", lambda k: with_entry(k, context={"Y": "0", "Z": "2"}), 2,
     "error: 'context': label '2' is not in the alphabet of 'Z'\n"),
    ("entry-outcome-wrong-group", lambda k: with_entry(k, outcome={"Z": "0"}), 2,
     "error: 'outcome' must bind exactly ['X'], got Z=0\n"),
    ("entry-outcome-unknown-label", lambda k: with_entry(k, outcome={"X": "9"}), 2,
     "error: 'outcome': label '9' is not in the alphabet of 'X'\n"),
    ("entry-outcome-unknown-variable", lambda k: with_entry(k, outcome={"Q": "0"}), 2,
     "error: 'outcome': unknown variable 'Q'\n"),
    ("entry-outcome-list-label", lambda k: with_entry(k, outcome={"X": ["0"]}), 2,
     "error: 'outcome' must map strings to strings\n"),
    ("entry-outcome-binding-before-context-label",
     lambda k: with_entry(k, context={"Y": "0", "Z": "2"}, outcome=[]), 2,
     "error: 'outcome' must be a nonempty object\n"),
    ("entry-duplicate",
     lambda k: with_extra_entry(k, {**entries_doc(k)["entries"][5],
                                    "context": {"Z": "0", "Y": "1"}}), 2,
     "error: duplicate entry at Y=1,Z=0/X=1\n"),
    # faults met after the same binding objects have been read before
    ("entry-duplicate-same-spelling",
     lambda k: with_extra_entry(k, entries_doc(k)["entries"][5]), 2,
     "error: duplicate entry at Y=1,Z=0/X=1\n"),
    ("entry-context-reused-as-outcome",
     lambda k: with_entry_at(k, 2, outcome={"Y": "0", "Z": "0"}), 2,
     "error: 'outcome' must bind exactly ['X'], got Y=0,Z=0\n"),
    ("entry-outcome-reused-as-context",
     lambda k: with_entry_at(k, 2, context={"X": "1"}), 2,
     "error: 'context' must bind exactly ['Y', 'Z'], got X=1\n"),
    ("entry-unhashable-label-after-seen-bindings",
     lambda k: with_entry_at(k, 4, context={"Y": ["1"], "Z": "0"}), 2,
     "error: 'context' must map strings to strings\n"),
]

def reversed_without(value_key: str, *cells) -> dict:
    """The document with its entries reversed and those at the (Y, Z, X) label cells dropped."""
    doc = entries_doc(value_key)
    doc["entries"] = [
        e for e in reversed(doc["entries"])
        if (e["context"]["Y"], e["context"]["Z"], e["outcome"]["X"]) not in cells
    ]
    return doc


# value faults, by the file they are in
VALUE_CASES = [
    ("rewards-r-true", "--rewards", with_entry_at("r", 3, r=True), 2,
     "error: 'r' at Y=0,Z=1/X=1 must be a finite number\n"),
    ("rewards-v-true", "--rewards", with_entry_at("r", 3, V=True), 2,
     "error: 'V' at Y=0,Z=1/X=1 must be a finite number\n"),
    ("interaction-i-true", "--interaction", with_entry_at("i", 3, i=True), 2,
     "error: 'i' at Y=0,Z=1/X=1 must be a number or \"-inf\"\n"),
    # integer literals past the double range, and strings, are not numbers
    ("rewards-r-oversized-int", "--rewards", with_entry_at("r", 3, r=2**1024 - 2**970), 2,
     "error: 'r' at Y=0,Z=1/X=1 must be a finite number\n"),
    ("rewards-v-oversized-int", "--rewards", with_entry_at("r", 3, V=-(10**400)), 2,
     "error: 'V' at Y=0,Z=1/X=1 must be a finite number\n"),
    ("interaction-i-oversized-int", "--interaction", with_entry_at("i", 3, i=10**400), 2,
     "error: 'i' at Y=0,Z=1/X=1 must be a number or \"-inf\"\n"),
    ("rewards-v-string", "--rewards", with_entry_at("r", 3, V="0"), 2,
     "error: 'V' at Y=0,Z=1/X=1 must be a finite number\n"),
    # the first context the file names is checked first, not the first in canonical order
    ("rewards-two-missing-entries", "--rewards",
     reversed_without("r", ("1", "1", "1"), ("0", "0", "1")), 4,
     "error: missing entry for outcome X=1 at context Y=1,Z=1 "
     "(pass --fill-zero to default missing entries to 0)\n"),
]

EVENT_CASES = [
    ("values-unknown-label", "--values",
     {"entries": [{"event": {"X": "0", "Y": "5"}, "v": 1.0}]}, 2,
     "error: 'event': label '5' is not in the alphabet of 'Y'\n"),
    ("values-unknown-variable", "--values",
     {"entries": [{"event": {"W": "0"}, "v": 1.0}]}, 2,
     "error: 'event': unknown variable 'W'\n"),
    ("values-duplicate-event", "--values",
     {"entries": [{"event": {"Y": "0", "X": "1"}, "v": 1.0},
                  {"event": {"X": "1", "Y": "0"}, "v": 2.0}]}, 2,
     "error: duplicate event X=1,Y=0\n"),
    ("values-bad-v", "--values",
     {"entries": [{"event": {"Z": "1", "X": "1"}, "v": "x"}]}, 2,
     "error: 'v' at X=1,Z=1 must be a finite number\n"),
    ("baseline-unknown-label", "--baseline-file",
     {"entries": [{"context": {"Y": "0", "Z": "3"}, "c": 1.0}]}, 2,
     "error: 'context': label '3' is not in the alphabet of 'Z'\n"),
    ("baseline-duplicate-context", "--baseline-file",
     {"entries": [{"context": {"Z": "1", "Y": "0"}, "c": 1.0},
                  {"context": {"Y": "0", "Z": "1"}, "c": 2.0}]}, 2,
     "error: duplicate context Y=0,Z=1\n"),
    # KeyError subclasses: str() of a KeyError is the repr of its message
    ("baseline-missing-context", "--baseline-file",
     {"entries": [{"context": {"Y": "0", "Z": "0"}, "c": 1.0}]}, 1,
     "error: gauge shift is undefined at context Y=0,Z=1\n"),
    ("values-missing-event", "--values",
     {"entries": [{"event": {"X": "0", "Y": "0"}, "v": 1.0}]}, 1,
     "error: no value for event X=0,Y=0,Z=0 and no default\n"),
]


def run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("label, doc, code, err", JOINT_CASES, ids=[c[0] for c in JOINT_CASES])
def test_joint_binding_faults(capsys, tmp_path, label, doc, code, err):
    assert run(capsys, ["solve", write(tmp_path / "joint.json", doc)]) == (code, "", err)


@pytest.mark.parametrize("command, option, value_key", [
    ("solve", "--rewards", "r"),
    ("construct", "--interaction", "i"),
])
@pytest.mark.parametrize("label, make, code, err", ENTRY_CASES, ids=[c[0] for c in ENTRY_CASES])
def test_entry_binding_faults(capsys, tmp_path, command, option, value_key, label, make, code, err):
    path = write(tmp_path / "entries.json", make(value_key))
    assert run(capsys, [command, F3, option, path]) == (code, "", err)


@pytest.mark.parametrize("label, option, doc, code, err", VALUE_CASES,
                         ids=[c[0] for c in VALUE_CASES])
def test_entry_value_faults(capsys, tmp_path, label, option, doc, code, err):
    command = "solve" if option == "--rewards" else "construct"
    path = write(tmp_path / "entries.json", doc)
    assert run(capsys, [command, F3, option, path]) == (code, "", err)


@pytest.mark.parametrize("label, option, doc, code, err", EVENT_CASES,
                         ids=[c[0] for c in EVENT_CASES])
def test_event_binding_faults(capsys, tmp_path, label, option, doc, code, err):
    argv = ["identify", F3, option, write(tmp_path / "events.json", doc),
            "--out", str(tmp_path / "out")]
    assert run(capsys, argv) == (code, "", err)
    assert list(tmp_path.glob("out.*")) == []


DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="this Python has no integer digit limit")

# file bytes; each exits 2 with one line naming the file
LOADER_CASES = [
    pytest.param(b"\xff\xfe{}", id="not-utf8"),
    pytest.param(b'{"p": ' + b"9" * 5000 + b"}", id="integer-past-digit-limit",
                 marks=DIGIT_LIMIT),
    pytest.param(b"[" * 100_000, id="nesting-past-the-stack"),
]


@pytest.mark.parametrize("data", LOADER_CASES)
def test_unreadable_files(capsys, tmp_path, data):
    path = tmp_path / "joint.json"
    path.write_bytes(data)
    code, out, err = run(capsys, ["solve", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and err.endswith("\n")


FAMILY = {
    "prior": {"kind": "geometric", "q": 0.5},
    "payoff": {"kind": "linear", "slope": 0.1},
    "bounds": {"tail": "geometric", "payoff": "linear"},
}

# (label, argv, stderr); every case exits 2. {rewards} and {family} name valid
# files written by the test, and {out} a path for --out. `--tol` is pinned in
# test_cli.
FLAG_CASES = [
    ("solve-alpha-nan", ["solve", F3, "--alpha", "nan"],
     "error: alpha must be finite and > 0, got nan\n"),
    ("solve-alpha-inf", ["solve", F3, "--alpha", "inf"],
     "error: alpha must be finite and > 0, got inf\n"),
    ("solve-alpha-zero", ["solve", F3, "--rewards", "{rewards}", "--alpha", "0"],
     "error: alpha must be finite and > 0, got 0.0\n"),
    # the rewards file's direction is x_given_yz
    ("solve-direction-disagrees-with-rewards",
     ["solve", F3, "--rewards", "{rewards}", "--direction", "z_given_yx"],
     "error: --direction 'z_given_yx' does not match the rewards direction 'x_given_yz'\n"),
    ("identify-alpha-negative", ["identify", F3, "--alpha", "-1", "--out", "{out}"],
     "error: alpha must be finite and > 0, got -1.0\n"),
    # i/alpha overflows: a rewards file of "inf" would be unreadable
    ("identify-alpha-tiny", ["identify", F3, "--alpha", "1e-320", "--out", "{out}"],
     "error: calibrated reward at Y=0,Z=0/X=0 must be finite, got inf at alpha 1e-320\n"),
    ("countable-eps-tail-zero", ["countable", "{family}", "--eps-tail", "0"],
     "error: eps_tail must be finite and > 0, got 0.0\n"),
    ("countable-eps-tail-nan", ["countable", "{family}", "--eps-tail", "nan"],
     "error: eps_tail must be finite and > 0, got nan\n"),
    ("countable-start-zero", ["countable", "{family}", "--start", "0", "--out", "{out}"],
     "error: truncation schedule must have start >= 1, doublings >= 0\n"),
    ("countable-max-doublings-negative", ["countable", "{family}", "--max-doublings", "-1"],
     "error: truncation schedule must have start >= 1, doublings >= 0\n"),
    ("countable-start-past-term-limit",
     ["countable", "{family}", "--start", "4611686018427387904", "--max-doublings", "0",
      "--out", "{out}"],
     "error: truncation point 4611686018427387904 would build 4611686018427387905 terms, "
     "more than the scan's limit of 33554432\n"),
]


def _no_terms(*args):
    raise AssertionError("a countable term was built")


@pytest.mark.parametrize("label, argv, err", FLAG_CASES, ids=[c[0] for c in FLAG_CASES])
def test_bad_flag_values(capsys, tmp_path, monkeypatch, label, argv, err):
    # no bad value may build a countable term: a missing limit fails here at
    # once, not by running out of memory
    monkeypatch.setattr(countable, "_term_chunk", _no_terms)
    files = {
        "rewards": write(tmp_path / "rewards.json", entries_doc("r")),
        "family": write(tmp_path / "family.json", FAMILY),
        "out": str(tmp_path / "out"),
    }
    argv = [arg.format(**files) for arg in argv]
    assert run(capsys, argv) == (2, "", err)
    assert list(tmp_path.glob("out*")) == []


def identified(capsys, tmp_path, joint: str, tag: str) -> dict:
    """The rewards document `identify` writes for a direction of the joint."""
    prefix = tmp_path / tag
    assert main(["identify", joint, "--direction", tag, "--out", str(prefix)]) == 0
    capsys.readouterr()
    with open(f"{prefix}.rewards.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_commute_triple_coverage_mismatch(capsys, tmp_path):
    # rows at the zero-mass context Y=1,Z=0 give the forward table two triples
    # that the swapped table cannot have, since P(Z=0 | Y=1) = 0
    joint = write(tmp_path / "sparse.json", joint_to_doc(sparse_joint()))
    fwd = identified(capsys, tmp_path, joint, "x_given_yz")
    fwd["entries"] += [
        {"context": {"Y": "1", "Z": "0"}, "outcome": {"X": x}, "r": 0.0, "V": 0.0}
        for x in BITS
    ]
    swp = identified(capsys, tmp_path, joint, "z_given_yx")
    argv = ["check", joint, "--rewards", write(tmp_path / "fwd.json", fwd),
            "--rewards-swapped", write(tmp_path / "swp.json", swp),
            "--checks", "commute", "--fill-zero"]
    assert run(capsys, argv) == (4, "", (
        "error: tables cover different triples (2 forward-only, 0 swapped-only; "
        "e.g. X=0,Y=1,Z=0)\n"
    ))


def test_commute_terminal_values_disagree(capsys, tmp_path):
    # two events disagree, listed against canonical order: the first in canonical order is named
    swp = identified(capsys, tmp_path, F3, "z_given_yx")
    swp["entries"].reverse()
    for entry in swp["entries"]:
        event = {**entry["context"], **entry["outcome"]}
        if event in ({"X": "0", "Y": "0", "Z": "1"}, {"X": "1", "Y": "1", "Z": "0"}):
            entry["V"] = 0.5
    fwd = identified(capsys, tmp_path, F3, "x_given_yz")
    argv = ["check", F3, "--rewards", write(tmp_path / "fwd.json", fwd),
            "--rewards-swapped", write(tmp_path / "swp.json", swp), "--checks", "commute"]
    assert run(capsys, argv) == (
        4, "", "error: terminal values disagree at event X=0,Y=0,Z=1: 0.0 vs 0.5\n"
    )


def test_gauge_context_sets_differ(capsys, tmp_path):
    # an entry at the zero-mass context Y=1,Z=0: the identified table has no row
    # there, so the gauge check's two tables cover different contexts, while the
    # decomposition check skips the context
    joint = write(tmp_path / "sparse.json", joint_to_doc(sparse_joint()))
    fwd = identified(capsys, tmp_path, joint, "x_given_yz")
    fwd["entries"].append(
        {"context": {"Y": "1", "Z": "0"}, "outcome": {"X": "0"}, "r": 0.0, "V": 0.0}
    )
    argv = ["check", joint, "--rewards", write(tmp_path / "fwd.json", fwd), "--fill-zero"]
    assert run(capsys, argv + ["--checks", "gauge"]) == (
        4, "", "error: reward tables cover different context sets\n"
    )
    code, out, err = run(capsys, argv + ["--checks", "decomposition"])
    assert (code, err, json.loads(out)["all_passed"]) == (0, "", True)


@pytest.fixture
def f3_files(capsys, tmp_path) -> dict:
    """The f3 files `identify` writes: the rewards of x_given_yz ("fwd"), z_given_yx
    ("swp"), y_given_xz ("yxz") and of z_given_yx at alpha 2 ("swp_alpha2"), and the
    interaction file of z_given_yx ("swp_interaction")."""
    runs = {"fwd": ["x_given_yz"], "swp": ["z_given_yx"], "yxz": ["y_given_xz"],
            "swp_alpha2": ["z_given_yx", "--alpha", "2"]}
    for name, flags in runs.items():
        out = str(tmp_path / name)
        assert main(["identify", F3, "--direction", *flags, "--out", out]) == 0
    capsys.readouterr()
    files = {name: str(tmp_path / f"{name}.rewards.json") for name in runs}
    files["swp_interaction"] = str(tmp_path / "swp.interaction.json")
    return files


# (label, argv, stderr); every case exits 2, and {name} is a file of `f3_files`
CROSS_FILE_CASES = [
    ("interaction-direction-differs",
     ["check", F3, "--rewards", "{fwd}", "--interaction", "{swp_interaction}",
      "--checks", "admissibility"],
     "error: interaction file direction 'z_given_yx' does not match the rewards direction "
     "'x_given_yz'\n"),
    ("swapped-rewards-not-the-swap",
     ["check", F3, "--rewards", "{fwd}", "--rewards-swapped", "{yxz}", "--checks", "commute"],
     "error: --rewards-swapped direction 'y_given_xz' is not the swap of 'x_given_yz'\n"),
    ("swapped-rewards-other-alpha",
     ["check", F3, "--rewards", "{fwd}", "--rewards-swapped", "{swp_alpha2}",
      "--checks", "commute"],
     "error: alpha disagrees between reward files: 1.0 vs 2.0\n"),
]


@pytest.mark.parametrize("label, argv, err", CROSS_FILE_CASES, ids=[c[0] for c in CROSS_FILE_CASES])
def test_faults_between_files(capsys, f3_files, label, argv, err):
    argv = [arg.format(**f3_files) for arg in argv]
    assert run(capsys, argv) == (2, "", err)


def test_one_variable_joint_has_no_direction(capsys, tmp_path):
    doc = {"variables": [{"name": "X", "alphabet": list(BITS)}],
           "mass": [{"assign": {"X": x}, "p": 0.5} for x in BITS]}
    assert run(capsys, ["solve", write(tmp_path / "one.json", doc)]) == (
        2, "", "error: need at least two variables to form a direction\n"
    )


def test_construct_rows_at_a_zero_mass_base(capsys, tmp_path):
    # Y=1 has zero mass, so identify writes no row there; rows added at Y=1,Z=0
    # and Y=1,Z=1 condition the prior P(X | Y=1) on a zero-mass event
    cells = {("0", "0"): 0.4, ("0", "1"): 0.1, ("1", "0"): 0.1, ("1", "1"): 0.4}
    joint = write(tmp_path / "joint.json", {
        "variables": [{"name": name, "alphabet": list(BITS)} for name in "XYZ"],
        "mass": [{"assign": {"X": x, "Y": "0", "Z": z}, "p": p} for (x, z), p in cells.items()],
    })
    assert main(["identify", joint, "--out", str(tmp_path / "id")]) == 0
    capsys.readouterr()
    with open(tmp_path / "id.interaction.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["entries"] += [{"context": {"Y": "1", "Z": z}, "outcome": {"X": x}, "i": 0.0}
                       for z in BITS for x in BITS]
    argv = ["construct", joint, "--interaction", write(tmp_path / "rows.json", doc)]
    assert run(capsys, argv) == (3, "", "error: conditioning event Y=1 has zero probability\n")
    code, out, err = run(capsys, argv + ["--skip-zero-mass"])
    assert (code, err) == (0, "") and out
