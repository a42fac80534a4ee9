"""Rewards and interaction files read the same whatever their spelling.

A seeded property draws a joint with about a third of its cells zero
(`helpers.sparse_random_joint`) and a random direction, runs `identify` in it
(and in its swap, where a tag can name the swap), and respells the files:

- the baseline sets some rewards to integer-valued floats, and zeroes a few
  reward entries of each context, never all of them;
- the respelled copy shuffles the entries, permutes the keys of every binding
  object, writes some integer-valued floats as JSON integers, and drops the
  zeroed entries, which `--fill-zero` restores.

The respelled files must read into the same rows and the same public tables
as the baseline, and every report of `solve`, `check` and `construct` on them
must be byte-identical, exit code and error line included.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from softtilt import Assignment, fixture_path
from softtilt.cli import main
from softtilt.errors import SchemaError
from softtilt.io import _read_rows, interaction_from_doc, joint_from_doc, reward_from_doc
from helpers import joint_to_doc, random_direction, sparse_random_joint, tag


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def shuffled(rng: random.Random, binding: dict) -> dict:
    items = list(binding.items())
    rng.shuffle(items)
    return dict(items)


def as_int(rng: random.Random, value):
    """value as an equal JSON integer, at random, where it is an integer-valued float."""
    if (isinstance(value, float) and value.is_integer() and math.copysign(1.0, value) > 0
            and rng.random() < 0.6):
        return int(value)
    return value


def baseline(rng: random.Random, doc: dict, fields) -> tuple[dict, set[int]]:
    """A rewards document with some rewards made integer-valued, and the
    indices of the entries zeroed for dropping; other documents as they are."""
    doc = json.loads(json.dumps(doc))
    entries = doc["entries"]
    dropped: set[int] = set()
    if "V" in fields:
        for entry in entries:
            if rng.random() < 0.3:
                entry["r"] = float(rng.randint(-3, 3))
        by_context: dict[str, list[int]] = {}
        for k, entry in enumerate(entries):
            by_context.setdefault(json.dumps(entry["context"], sort_keys=True), []).append(k)
        for ks in by_context.values():
            for k in rng.sample(ks[1:], rng.randint(0, len(ks) - 1)):
                entries[k].update(r=0.0, V=0.0)
                dropped.add(k)
    return doc, dropped


def respelled(rng: random.Random, doc: dict, dropped: set[int], fields) -> dict:
    doc = json.loads(json.dumps(doc))
    entries = []
    for k, entry in enumerate(doc["entries"]):
        if k in dropped:
            continue
        entry = {key: entry[key] for key in rng.sample(list(entry), len(entry))}
        entry["context"] = shuffled(rng, entry["context"])
        entry["outcome"] = shuffled(rng, entry["outcome"])
        for name in fields:
            entry[name] = as_int(rng, entry[name])
        entries.append(entry)
    rng.shuffle(entries)
    doc["entries"] = entries
    return doc


def rows_of(table):
    return table.alpha, table.direction, list(table.rows.items()), table.terminals


class TestRespelledFiles:
    @seed(0x5EAD)
    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_respelled_files_read_and_report_the_same(self, case):
        rng = random.Random(case)
        doc = joint_to_doc(sparse_random_joint(rng, min_vars=2))
        joint = joint_from_doc(doc)
        target, base, observed = random_direction(rng, joint.names)
        sides = {"fwd": tag(target, base + observed)}
        if len(target) == 1:
            sides["swp"] = tag(observed, base + target)
        with tempfile.TemporaryDirectory() as tmp:
            self._run(Path(tmp), rng, doc, joint, sides)

    def _run(self, tmp: Path, rng, doc, joint, sides) -> None:
        j = tmp / "joint.json"
        j.write_text(json.dumps(doc), encoding="utf-8")
        files = {}
        for side, direction in sides.items():
            assert run(["identify", j, "--direction", direction, "--alpha", "1.5",
                        "--out", tmp / side])[0] == 0
            for kind, fields in (("rewards", ("r", "V")), ("interaction", ("i",))):
                text = (tmp / f"{side}.{kind}.json").read_text(encoding="utf-8")
                base_doc, dropped = baseline(rng, json.loads(text), fields)
                docs = (base_doc, respelled(rng, base_doc, dropped, fields))
                paths = []
                for name, d in zip(("base", "respelled"), docs):
                    path = tmp / f"{side}.{kind}.{name}.json"
                    path.write_text(json.dumps(d), encoding="utf-8")
                    paths.append(path)
                files[side, kind] = docs, paths
                self._same_tables(joint, kind, *docs)

        for at in (0, 1):
            def path(side, kind):
                return files[side, kind][1][at]

            swapped = ["--rewards-swapped", path("swp", "rewards")] if "swp" in sides else []
            argvs = [
                ["solve", j, "--rewards", path("fwd", "rewards"), "--fill-zero",
                 "--skip-zero-mass"],
                ["check", j, "--rewards", path("fwd", "rewards"), *swapped, "--fill-zero",
                 "--interaction", path("fwd", "interaction")],
                ["construct", j, "--interaction", path("fwd", "interaction"),
                 "--skip-zero-mass"],
            ]
            reports = [run(argv) for argv in argvs]
            if at == 0:
                want = reports
            else:
                assert reports == want

    @staticmethod
    def _same_tables(joint, kind, base_doc, respelled_doc) -> None:
        if kind == "rewards":
            a, b = (reward_from_doc(d, joint, fill_zero=True) for d in (base_doc, respelled_doc))
            assert (a.alpha, a.direction) == (b.alpha, b.direction)
            assert a.rewards.entries == b.rewards.entries
            assert a.terminals == b.terminals
            rows = [_read_rows(d, joint, "reward", True) for d in (base_doc, respelled_doc)]
        else:
            (alpha_a, a), (alpha_b, b) = (interaction_from_doc(d, joint)
                                          for d in (base_doc, respelled_doc))
            assert alpha_a == alpha_b and a.direction == b.direction
            assert a.values == b.values
            rows = [_read_rows(d, joint, "interaction") for d in (base_doc, respelled_doc)]
        (alpha_a, dir_a, rows_a, terms_a), (alpha_b, dir_b, rows_b, terms_b) = map(rows_of, rows)
        assert (alpha_a, dir_a, terms_a) == (alpha_b, dir_b, terms_b)
        # each file lists its contexts in the order it first names them
        assert dict(rows_a) == dict(rows_b)


class TestIntegerLiterals:
    """A plain int value converts as `float` does; past the double range it is a fault."""

    F3 = {"direction": "x_given_yz", "alpha": 1.0, "entries": [
        {"context": {"Y": y, "Z": z}, "outcome": {"X": x}, "r": 0.0, "V": 0.0, "i": 0.0}
        for y in "01" for z in "01" for x in "01"
    ]}
    # the largest double as an int, the smallest int that rounds to it from above,
    # and the largest int that rounds to it at all
    FINITE = (0, -3, 2**53 + 1, int(sys.float_info.max), int(sys.float_info.max) + 1,
              2**1024 - 2**970 - 1, -(2**1024 - 2**970 - 1))
    INFINITE = (2**1024 - 2**970, -(2**1024 - 2**970), 10**400)

    def _read(self, kind: str, field: str, value) -> float:
        """The value read at Y=0,Z=1/X=1 when its field holds value."""
        doc = json.loads(json.dumps(self.F3))
        doc["entries"][3][field] = value
        joint = joint_from_doc(json.loads(fixture_path("f3.json").read_text(encoding="utf-8")))
        table = _read_rows(doc, joint, kind)
        s = table.split
        ci = s.ctx_index[Assignment({"Y": "0", "Z": "1"})]
        ti = s.outcome_index[Assignment({"X": "1"})]
        if field == "V":
            return table.terminals[s.ctx_full[ci] + s.out_full[ti]]
        return table.rows[ci][ti]

    def test_finite_ints_read_as_floats(self):
        for n in self.FINITE:
            for kind, field in (("reward", "r"), ("reward", "V"), ("interaction", "i")):
                value = self._read(kind, field, n)
                assert type(value) is float and value == float(n)

    def test_oversized_ints_and_bools_are_faults(self):
        for n in (*self.INFINITE, True, False):
            for kind, field in (("reward", "r"), ("reward", "V"), ("interaction", "i")):
                with pytest.raises(SchemaError, match=f"'{field}' at Y=0,Z=1/X=1 must be"):
                    self._read(kind, field, n)
