"""The golden chain (see golden_chain.py) in tier-1: exact where this
environment is the record's, determinism elsewhere."""

import hashlib
import json

import golden_chain
from conftest import golden_lines
from pearl import cli


def test_golden_chain(tmp_path):
    mode = golden_chain.mode()
    check = golden_chain.check_exact if mode == "exact" else golden_chain.check_determinism
    bad = check(tmp_path)
    golden_lines.append(
        f"GOLDEN CHAIN {'FAIL' if bad else 'PASS'}: {mode} mode, "
        + (f"differ: {', '.join(bad)}" if bad else "every output equal")
    )
    assert bad == []


def test_one_byte_edit_to_any_output_is_caught(tmp_path):
    golden_chain.run_chain(tmp_path / "chain")
    expected = golden_chain.digests(tmp_path / "chain")
    assert len(expected) == 29
    for path in sorted((tmp_path / "chain").iterdir()):
        data = path.read_bytes()
        # flip the last byte's low bit; an empty file (no pathway dropped) gains a byte
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]) if data else b"\n")
        assert golden_chain.mismatches(expected, golden_chain.digests(tmp_path / "chain")) == [
            path.name
        ]
        path.write_bytes(data)


def test_each_command_writes_exactly_its_declared_outputs(tmp_path, monkeypatch):
    out, pearl = tmp_path / "chain", golden_chain.pearl
    argvs, written = {}, {}

    def spy(argv):  # the files that are new under --out-dir after each call
        before = set(out.iterdir()) if out.exists() else set()
        code = pearl(argv)
        argvs[argv[0]], written[argv[0]] = argv, {p.name for p in set(out.iterdir()) - before}
        return code

    monkeypatch.setattr(golden_chain, "pearl", spy)
    golden_chain.run_chain(out)
    folds = int(argvs["run-cv"][argvs["run-cv"].index("--folds") + 1])
    # `<k>` stands for each fold; a name without it is the same for every k
    assert written == {
        name: {o.replace("<k>", str(k)) for o in cli.COMMANDS[name].outputs for k in range(folds)}
        for name in argvs
    }
    assert set(cli.COMMANDS) - set(argvs) == {"gradcheck"}  # it prints its report
    assert set().union(*written.values()) == set(
        json.loads(golden_chain.RECORD.read_text())["files"]
    )


def test_write_names_the_changed_outputs(tmp_path, monkeypatch, capsys):
    outputs = {"a.tsv": "1\n", "b.csv": "2\n", "c.json": "{}\n"}

    def run_chain(out):  # three files instead of the chain's 29
        out.mkdir()
        for name, text in outputs.items():
            (out / name).write_text(text)

    record = tmp_path / "record.json"  # absent at first: every output is new
    monkeypatch.setattr(golden_chain, "RECORD", record)
    monkeypatch.setattr(golden_chain, "run_chain", run_chain)
    printed = []
    for edit in ({}, {}, {"b.csv": "3\n"}, {"a.tsv": "0\n", "c.json": "[]\n"}):
        outputs.update(edit)
        assert golden_chain.main(["--write"]) == 0
        printed.append(capsys.readouterr().out)
        assert json.loads(record.read_text())["files"] == {
            name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()
        }
    assert printed == [
        f"wrote 3 digests to {record}; changed: {names}\n"
        for names in ("a.tsv, b.csv, c.json", "none", "b.csv", "a.tsv, c.json")
    ]


def test_chain_is_deterministic(tmp_path):
    # the check that runs where the environment is not the record's
    assert golden_chain.check_determinism(tmp_path) == []
