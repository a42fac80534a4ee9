"""The CLI contract under seeded document mutations.

Valid documents of all six kinds (joint, rewards, interaction, values,
baseline, family) are built from the bundled f3 joint, identify's own
artifacts and a geometric family. Each is mutated with a seeded generator:
a value replaced by null, a bool, an integer past the double range, the
smallest subnormal, the string "nan", an empty array or object, or an
unknown label; a key or array element dropped; an array element duplicated;
an unknown key added. Every mutated document runs through main() in process
with the subcommands that read its kind, and every run must:

- raise nothing out of main() and exit 0, 1, 2, 3 or 4;
- write to stderr nothing, or exactly one `error: ` line that holds no
  traceback and no Python repr of a binding, and nothing at all on exit 0;
- leave no --out artifact behind once it printed an `error: ` line.
"""

from __future__ import annotations

import copy
import json
import random
import re

import pytest

from softtilt import fixture_path
from softtilt.cli import main

F3 = str(fixture_path("f3.json"))
MUTANTS_PER_KIND = 150
BAD_VALUES = (None, True, False, 10**400, 5e-324, "nan", [], {}, "no-such-label")
ERROR_LINE = re.compile(r"error: [^\n]*\n")


def paths(node, prefix=()):
    """The path of every node below the root, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, rng: random.Random) -> tuple[object, list[str]]:
    """The document after one or two seeded mutations, and what they were."""
    doc = copy.deepcopy(doc)
    done = []
    for _ in range(rng.randint(1, 2)):
        if not isinstance(doc, (dict, list)):
            break
        nodes = list(paths(doc))
        op = rng.choice(("replace", "drop", "duplicate", "add"))
        if op == "add":
            objects = [p for p in [()] + nodes if isinstance(at(doc, p), dict)]
            path = rng.choice(objects)
            at(doc, path)["unknown"] = 0
        elif op == "duplicate" and any(isinstance(p[-1], int) for p in nodes):
            path = rng.choice([p for p in nodes if isinstance(p[-1], int)])
            at(doc, path[:-1]).insert(path[-1], copy.deepcopy(at(doc, path)))
        elif op == "drop" and nodes:
            path = rng.choice(nodes)
            del at(doc, path[:-1])[path[-1]]
        else:
            path = rng.choice([()] + nodes)
            value = copy.deepcopy(rng.choice(BAD_VALUES))
            if path:
                at(doc, path[:-1])[path[-1]] = value
            else:
                doc = value
            op = "replace with " + ("10**400" if value == 10**400 else repr(value))
        done.append(f"{op} at {list(path)}")
    return doc, done


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid documents per kind, and the artifact paths the commands read."""
    root = tmp_path_factory.mktemp("inputs")
    fwd, swp = root / "fwd", root / "swp"
    assert main(["identify", F3, "--out", str(fwd)]) == 0
    assert main(["identify", F3, "--direction", "z_given_yx", "--out", str(swp)]) == 0
    files = {
        "rewards": f"{fwd}.rewards.json",
        "interaction": f"{fwd}.interaction.json",
        "swapped": f"{swp}.rewards.json",
    }
    with open(F3, encoding="utf-8") as fh:
        docs = {"joint": json.load(fh)}
    for kind in ("rewards", "interaction"):
        with open(files[kind], encoding="utf-8") as fh:
            docs[kind] = json.load(fh)
    docs["values"] = {
        "entries": [
            {"event": {"X": "0", "Y": "0", "Z": "0"}, "v": 0.25},
            {"event": {"X": "1", "Z": "1"}, "v": -0.5},
        ],
        "default": 0.125,
    }
    docs["baseline"] = {
        "entries": [{"context": {"Y": "0", "Z": "0"}, "c": -0.25}],
        "default": 0.5,
    }
    docs["family"] = {
        "prior": {"kind": "geometric", "q": 0.5},
        "payoff": {"kind": "linear", "slope": 0.1, "intercept": 0.25},
        "bounds": {"tail": "geometric", "payoff": "linear"},
    }
    return docs, files


def commands(kind: str, doc: str, files: dict, out: str) -> list[list[str]]:
    """The subcommands that read a document of this kind."""
    rewards = files["rewards"]
    if kind == "joint":
        return [
            ["solve", doc, "--skip-zero-mass", "--out", out],
            ["identify", doc, "--out", out],
            ["check", doc, "--rewards", rewards, "--out", out],
        ]
    if kind == "rewards":
        return [
            ["solve", F3, "--rewards", doc, "--out", out],
            ["check", F3, "--rewards", doc, "--rewards-swapped", files["swapped"], "--out", out],
        ]
    if kind == "interaction":
        return [
            ["construct", F3, "--interaction", doc, "--out", out],
            ["check", F3, "--rewards", rewards, "--interaction", doc,
             "--checks", "admissibility", "--out", out],
        ]
    if kind == "values":
        return [["identify", F3, "--values", doc, "--out", out]]
    if kind == "baseline":
        return [["identify", F3, "--baseline-file", doc, "--out", out]]
    return [["countable", doc, "--out", out]]


def contract_breach(capsys, work, argv) -> str | None:
    """What the run did against the contract, or None."""
    try:
        code = main(argv)
    except BaseException as exc:  # noqa: BLE001 - anything escaping main is the finding
        capsys.readouterr()
        return f"raised {exc!r}"
    err = capsys.readouterr().err
    left = sorted(p.name for p in work.glob("o*"))
    for path in work.glob("o*"):
        path.unlink()
    if code not in (0, 1, 2, 3, 4):
        return f"exit {code!r}"
    if err and (not ERROR_LINE.fullmatch(err) or "Traceback" in err or "Assignment(" in err):
        return f"exit {code}, stderr {err!r}"
    if code == 0 and err:
        return f"exit 0 with stderr {err!r}"
    if err and left:
        return f"exit {code}, {err!r}, left {left}"
    return None


@pytest.mark.parametrize("kind", ["joint", "rewards", "interaction", "values", "baseline", "family"])
def test_mutated_documents_keep_the_cli_contract(capsys, tmp_path, inputs, kind):
    docs, files = inputs
    rng = random.Random(f"softtilt-fuzz-{kind}")
    doc_path = tmp_path / "doc.json"
    work = tmp_path / "work"
    work.mkdir()
    breaches = []
    for n in range(MUTANTS_PER_KIND):
        mutant, done = mutate(docs[kind], rng)
        doc_path.write_text(json.dumps(mutant), encoding="utf-8")
        for argv in commands(kind, str(doc_path), files, str(work / "o")):
            breach = contract_breach(capsys, work, argv)
            if breach:
                breaches.append(f"mutant {n} ({'; '.join(done)}), {argv[0]}: {breach}")
    assert not breaches, "\n".join(breaches[:10])
