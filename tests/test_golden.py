"""Golden bytes: the CLI's reports and artifacts, pinned by sha256.

Every invocation below runs through main() in process on five joints: the
two bundled fixtures, the sparse and overflow helper joints, and a seeded,
strictly positive 6^3 joint. Per joint it covers identify in both directions
(and once with terminal values and a baseline), solve on each rewards file
and without one, each check alone and all together in both directions,
check --interaction and construct. Each digest covers the exit code, stdout
and every artifact the invocation writes, so any change to the bytes the
CLI produces fails here. Only invocations that exit 0 or 1 are pinned.
The same stdouts and artifacts must each equal `dumps_report` of their own
parse, which holds the report writer to the plain renderer on every report
kind without naming either.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from softtilt import fixture_path
from softtilt.cli import main
from softtilt.io import dumps_report
from helpers import joint_to_doc, overflow_joint, sparse_joint

CHECKS = ("gauge", "admissibility", "decomposition", "commute")


def dense_doc() -> dict:
    """A strictly positive joint over X, Y, Z with six labels each, seeded."""
    rng = random.Random(6)
    labels = [str(i) for i in range(6)]
    cells = [(x, y, z) for x in labels for y in labels for z in labels]
    weights = [rng.randint(1, 999) for _ in cells]
    total = sum(weights)
    return {
        "variables": [{"name": n, "alphabet": labels} for n in ("X", "Y", "Z")],
        "mass": [
            {"assign": {"X": x, "Y": y, "Z": z}, "p": w / total}
            for (x, y, z), w in zip(cells, weights)
        ],
    }


def write_joints(root: Path) -> dict[str, tuple[str, bool]]:
    """Joint path and whether identify's rewards need --fill-zero, per name."""
    docs = {
        "sparse": joint_to_doc(sparse_joint()),
        "overflow": joint_to_doc(overflow_joint()),
        "dense": dense_doc(),
    }
    joints = {
        "f1": (str(fixture_path("f1.json")), False),
        "f3": (str(fixture_path("f3.json")), False),
    }
    for name, doc in docs.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        joints[name] = (str(path), name in ("sparse", "overflow"))
    return joints


def invocations(root: Path, joint: str, fill: bool) -> list[tuple[str, list[str], list[Path]]]:
    """(label, argv, artifacts) in run order; later steps read earlier artifacts."""
    values = root / "values.json"
    values.write_text(json.dumps({
        "entries": [
            {"event": {"X": "0", "Y": "0", "Z": "0"}, "v": 0.25},
            {"event": {"X": "1", "Y": "0", "Z": "1"}, "v": -0.5},
        ],
        "default": 0.125,
    }), encoding="utf-8")
    baseline = root / "baseline.json"
    baseline.write_text(json.dumps({
        "entries": [{"context": {"Y": "0", "Z": "0"}, "c": -0.25}],
        "default": 0.5,
    }), encoding="utf-8")
    fill_flag = ["--fill-zero"] if fill else []
    prefix = {side: root / side for side in ("fwd", "swp", "val")}
    rewards = {side: f"{p}.rewards.json" for side, p in prefix.items()}
    interaction = {side: f"{p}.interaction.json" for side, p in prefix.items()}

    def artifacts(side):
        return [Path(f"{prefix[side]}.{part}.json") for part in ("interaction", "rewards", "report")]

    runs = [
        ("identify-fwd", ["identify", joint, "--alpha", "1.5", "--out", str(prefix["fwd"])],
         artifacts("fwd")),
        ("identify-swp", ["identify", joint, "--alpha", "1.5", "--direction", "z_given_yx",
                          "--out", str(prefix["swp"])], artifacts("swp")),
        ("identify-val", ["identify", joint, "--alpha", "0.5", "--values", str(values),
                          "--baseline-file", str(baseline), "--out", str(prefix["val"])],
         artifacts("val")),
        ("solve-zero", ["solve", joint, "--skip-zero-mass"], []),
        ("check-all-val", ["check", joint, "--rewards", rewards["val"], *fill_flag], []),
    ]
    for side, other in (("fwd", "swp"), ("swp", "fwd")):
        runs.append((f"solve-{side}", ["solve", joint, "--rewards", rewards[side],
                                       "--skip-zero-mass", *fill_flag], []))
        for check in CHECKS:
            argv = ["check", joint, "--rewards", rewards[side], "--checks", check, *fill_flag]
            if check == "commute":
                argv += ["--rewards-swapped", rewards[other]]
            runs.append((f"check-{check}-{side}", argv, []))
        runs.append((f"check-all-{side}", ["check", joint, "--rewards", rewards[side],
                                           "--rewards-swapped", rewards[other], *fill_flag], []))
        runs.append((f"check-interaction-{side}", [
            "check", joint, "--rewards", rewards[side], "--interaction", interaction[side],
            "--checks", "admissibility", *fill_flag], []))
        runs.append((f"construct-{side}", ["construct", joint, "--interaction",
                                           interaction[side]], []))
    return runs


def run_all(root: Path, capsys, texts: list | None = None) -> dict[str, str]:
    """sha256 of exit code, stdout and artifacts for every invocation that exits 0
    or 1; texts, when given, collects each such stdout and artifact."""
    digests = {}
    for name, (joint, fill) in write_joints(root).items():
        work = root / name
        work.mkdir()
        for label, argv, artifacts in invocations(work, joint, fill):
            code = main(argv)
            out = capsys.readouterr().out
            if code not in (0, 1):
                continue
            h = hashlib.sha256(f"{code}\n".encode() + out.encode())
            for path in artifacts:
                h.update(b"\0" + path.read_bytes())
            digests[f"{name}/{label}"] = h.hexdigest()
            if texts is not None:
                texts += [(label, out)] if out else []
                texts += [(path.name, path.read_text(encoding="utf-8")) for path in artifacts]
    return digests


GOLDEN = {
    "f1/identify-fwd": "807e9ed7da43ba14ee2ce27a7b750cdc0adcbe63386b999f1d379c9a2abdba4a",
    "f1/identify-swp": "b3be3720de3702dc1efe283a76d1330f05ec81df02a244b2949ab00302bcad50",
    "f1/identify-val": "1ffd579163e5d412ebd67d759bbd4adb2a0cb45865c4f9a358ddd2d599f33732",
    "f1/solve-zero": "714d222c9fec81aaa948f502a9b04ce536281c650872a2fbbb7f5cc893800cbc",
    "f1/check-all-val": "0471e7250854b81f9bb54a356dfad9626e66a4fb07e2dfb61c2e1b610f9998af",
    "f1/solve-fwd": "8cc641b342ec6b079fb8d61f13e7c050c5826bd4419ea3dcaeae6d0162ab1be2",
    "f1/check-gauge-fwd": "c6289fa3ced1c687c0f5a67a20c506c626e6e69292d422c27e4d46d672f9626a",
    "f1/check-admissibility-fwd": "565041c2d4f8d8d0e2a3ae50e409114fecc97044d569d2e46b1931248171f414",
    "f1/check-decomposition-fwd": "0ee814c221ebc174de5ca3dbeb0f8d5e56c40d2af10a3fb74220479c2526d0f5",
    "f1/check-commute-fwd": "2079e1e60302896bc56f62a3a514be1e67ee0a2b85e42a5473cd3c6517b6f3cf",
    "f1/check-all-fwd": "a9d86ad938a9dd1359edb48a65f445ea4d54002850f327672edb82aed80f44aa",
    "f1/check-interaction-fwd": "7b7ea38d38321203aeab262368584256e3f3937e5af384d99c77ed6620987bbf",
    "f1/construct-fwd": "650041c7496f93ce0327b122a1a1b8efe8cc3b947acc2504150ff5964d0ed760",
    "f1/solve-swp": "df83e73f037bcaf3e32ac0d5411601ac06b5627b83e626407663004c2d8b4709",
    "f1/check-gauge-swp": "c3bc9075366b88373d38961ff23c1c30347579d722d07f6ce9d454d06f1ee420",
    "f1/check-admissibility-swp": "8907b88c184efcfbe29d95bdf5f8b16a95001f0842a3fdd0912d2c1321bba043",
    "f1/check-decomposition-swp": "bdb60577a45d82bab4d93f9c61107e2ecbeb6a9adca931e61165c939d5a75561",
    "f1/check-commute-swp": "52d610a09079683dcc3d96d80fc27b2d0c74211aba13727972cf6d70b175d595",
    "f1/check-all-swp": "8786260d0ad1a21b1a4bc01614872b92ef8f5f9c4e5f1b5ae64dfb808258fa54",
    "f1/check-interaction-swp": "7d9cdb2b6439dc0407a5cf69ab4fa1b9fb50afb513b9c0a4dcca120e9a25306c",
    "f1/construct-swp": "2fe94f550a34544b777a8108795f06e5330ac5958ab1e933f1c195d29a025c08",
    "f3/identify-fwd": "dcccf44a1bf3da44b6835b55fa87b07f67c0bf48547b89849aab2d8ac7a102ab",
    "f3/identify-swp": "f1425e35c17c02224759d9ef37ed054d29fa0fa158add0f2eba237e38c7a4b0f",
    "f3/identify-val": "71e811334b3ca1b97a525d57357788746c4691c5244995f08b1557ac66813d8a",
    "f3/solve-zero": "714d222c9fec81aaa948f502a9b04ce536281c650872a2fbbb7f5cc893800cbc",
    "f3/check-all-val": "19a74a18f0cf749860849774a64b7f85952394697326f4851ef68e6946120036",
    "f3/solve-fwd": "3698c63686facc5cc3816fa699110da5c77af462b9e2c3aa62fd8beda0de14bd",
    "f3/check-gauge-fwd": "c6289fa3ced1c687c0f5a67a20c506c626e6e69292d422c27e4d46d672f9626a",
    "f3/check-admissibility-fwd": "fd8afc1e8dccf4586d0c76d45bc60153a609d5e4652a235f506249f408fa6a27",
    "f3/check-decomposition-fwd": "90f5e7f5ed3e283fd7230bc2fdc4c77f6a30282da4c0d47c6a1e61b1b31df441",
    "f3/check-commute-fwd": "30e06ca3f788bb622a42fd66bc9159733d3eaaa3a70f898ae7dd6c7e919e6da9",
    "f3/check-all-fwd": "31b5c96816f01cdaa4e4153e526327a7c265b14c362b26f356d1c98a4911fa2c",
    "f3/check-interaction-fwd": "072d656725ea297ad48c02d39e9f9823d94c0525f7c5820a75d0526712f4ea5f",
    "f3/construct-fwd": "321c9e6f7f46eb0cfeee198e40dae55f4cec0c17607ad962cb57fc452f2c54fd",
    "f3/solve-swp": "55ed52983f064a4604a0a4d1ebda21df093a8cfd35c2184db0db9bca33959b4c",
    "f3/check-gauge-swp": "c3bc9075366b88373d38961ff23c1c30347579d722d07f6ce9d454d06f1ee420",
    "f3/check-admissibility-swp": "b58fa133b53798a6baf6d4aea2724293e0b94fa82e4dcb194b56a100d6d2684f",
    "f3/check-decomposition-swp": "db1e359acf545549be42b68d60e844867087040af4f9ab1b9d526f2a5521e59b",
    "f3/check-commute-swp": "9908b42ff647916a73f3721a24068f5168a453738446bc0769af02752617430e",
    "f3/check-all-swp": "a8c03ddd4238693ccd658c0510897204e739d0cc0367ea85a264ae257ad7ab4a",
    "f3/check-interaction-swp": "1b6264ee4a4fb13e7fe6b2b178e3ca4b99e86c1a57455741f6f265ccb7c1db67",
    "f3/construct-swp": "1b98f5cf1b1cb966992585a471aab41342b92ea0b88f6f1f0141ca718af0554c",
    "sparse/identify-fwd": "940030f1f48c79c18c023c96c893f6dc4372475cbb208bc5e54500cf9f585a47",
    "sparse/identify-swp": "4c303578d1b6abac15e0c08eb94a45f37868e2f80a03e296adf78e4ff0947627",
    "sparse/identify-val": "9bc0eb2cc6b7ccf44ae0da184210417de7b1cd16202a9080ced7b3058ffe1185",
    "sparse/solve-zero": "c0c4dad856f40be9f2a4c7f3a6c4126494ed08113573ab6d71c7625fc6cd1234",
    "sparse/check-all-val": "1ea593a8fa5a4a8c9010d7b29bd05e4e55fc25e7ec58389ee49d0770f0d50c14",
    "sparse/solve-fwd": "6cfee5c5605dcfe009ddce61df9fb499459f021243fe55537abeb92439fe2053",
    "sparse/check-gauge-fwd": "88f24518a2a547e1544efb1d78acc4f3e8a599843f98b8388805af41acbeb69b",
    "sparse/check-admissibility-fwd": "94f4353696297c9ac9fc8531c4c4ae9fdaf244fc339bd3d29edef10c3f250de9",
    "sparse/check-decomposition-fwd": "717af83557044d507c6bc59e5b54d2d0fb75231c2c7a194026f69ce7ab3587a9",
    "sparse/check-commute-fwd": "92b74e07cfeb0d4e684eb6344b432a18b9926e28734ea90a2822cbfad965dc75",
    "sparse/check-all-fwd": "cbc36c1a6b5f29f19c21b22d4826fa689b601f94f244cde9d5ddc774bafee9df",
    "sparse/check-interaction-fwd": "0519b5d9105ca10a64564c8ace8a4e6a8ecbb5bca633556e3d144c907a9a7467",
    "sparse/construct-fwd": "bd005eddeefc7c53df503ef1679c3e201c5375ead99e06e182acfdabfd5f1b00",
    "sparse/solve-swp": "a0b6160a730cbe42ca009aabb190a7bc7fb79c5b4dde7aa7fbe89583feece986",
    "sparse/check-gauge-swp": "9a9ef15a8b49451f49c81512e32e095bbb683664dc0ebf0bbbd5c82baf15c053",
    "sparse/check-admissibility-swp": "02744b6d6c8a04457749bda8eafc1beccde6279f06457afa4245e9499270ed8f",
    "sparse/check-decomposition-swp": "43298c36a94bbb92464f7e1702ba58e6208bb1e6d5b3dc41cc32efd9f7de16b7",
    "sparse/check-commute-swp": "670ab8276eed08992b3a0857154b928091a9c9aad3dcdeeb4c69117a7aa5aa6d",
    "sparse/check-all-swp": "6522cdd122544ac24aa6913ebd45d9dedbc3fe254f3baf61bb6d150d75313905",
    "sparse/check-interaction-swp": "4a3806977843db351eed2d7150a7fc109c05b32de832ae1bf63c98eb67f50d78",
    "sparse/construct-swp": "96ee5c8843df5ab0b9f85ce36a772e661ff7356b46c780e8f2fbb76d75f4e10f",
    "overflow/identify-fwd": "f97fd3d90c8f2787fc0640c78fba6e8b377af573bf5561fd0a1a507b0909b730",
    "overflow/identify-swp": "b830441cf9becec63373915d63304dff8a7fade3d9661d8e0385fc0e1cb961c8",
    "overflow/identify-val": "55b0802206a903fffd77471e912522f0e87b689916694f62a958789bd7b97b73",
    "overflow/solve-zero": "cf6c33c893fd0e96477e6d5e53b95703a022aae69a7350ba1f9949d7a28465d5",
    "overflow/check-all-val": "0ee000e3c889019931adef2cc96b489229b45a04777b034a2a19ffe7dd52e5eb",
    "overflow/solve-fwd": "f19daa9da6c6aae53d4b73bdc670e7029df6a4747513004237ced7c5a35bdf77",
    "overflow/check-gauge-fwd": "dc46f07f6ae0d8dbcb1e7ae66a864e47d2ee92d885603b9f950c79915c441ac9",
    "overflow/check-admissibility-fwd": "466737bcc358b239e3d67fd7e10ecd52fa81cc09a9a988ce5338227272f06cc2",
    "overflow/check-decomposition-fwd": "2066ed064e68340fcd54ea9789bc936663e6f896a0c1238913201cbe8dfc3ced",
    "overflow/check-commute-fwd": "0c299266b482f64fa565be146880950274f0a5b40a57f795d1697b052a097125",
    "overflow/check-all-fwd": "727886299cb6f7a2e66bb862fc67ffdd09030f0f48eeeac3333ffa481a415aa4",
    "overflow/check-interaction-fwd": "75199923a2cbd2d6e836fca77ea66245fee29c8df70cb18ee3072c19a2accf47",
    "overflow/construct-fwd": "9d001efb645085c32456026b6fdb7bb264157cf200ad1aa2f043192042a6c9a2",
    "overflow/solve-swp": "c5bf6ea8506777e1971d9a01e5bf26260658770681efde0947b14affc5fc352c",
    "overflow/check-gauge-swp": "ba1b3f1e2d473ee07d1f7f83c65fa7ed3130e54568f162bedb00fad469c6f990",
    "overflow/check-admissibility-swp": "31ada75f3f960553ea3e27b4d8f4e90f2a7fa59349ef098984395b3a407e3a24",
    "overflow/check-decomposition-swp": "9bf2fe6fe9bbe1b766b4d2e2a66b0d8f340bf895974ed99c40d17869338c684c",
    "overflow/check-commute-swp": "e91f2aa94cab94ffe92178f8d836daef96761dedf01875f384a5b1a877189704",
    "overflow/check-all-swp": "f72f6de78f61d051a3d9a21dc186195136254350feeef7b9ec688c7caa194826",
    "overflow/check-interaction-swp": "5065e3fa3d5b1c428b677ea356c73cbe394ff36ed0610e207143974139b2c5f2",
    "overflow/construct-swp": "557e581caf4bccd14d372521839c0ac3334dd5340a1872debba885842cf263d1",
    "dense/identify-fwd": "0d192b9a8c09688adb20a3634ec7cee129d5007eae6a9280ba87e3d5c8884447",
    "dense/identify-swp": "cc65cc120c1d5b9136e1f4cf3c908e1b390e37bd55051a189abcdaf1d73e660c",
    "dense/identify-val": "cbc318ef4ef58c3315ecb96bbdb58af067adbc04aeb1beb8360918435dd78e44",
    "dense/solve-zero": "ccdbe3be0abbd33e3b0131e41525310985cb671c1f43a3df960b8ec74282ca72",
    "dense/check-all-val": "3355167d9dfa67a899f2001bde428c85add8ecb833d6505ba49c64a7363499bc",
    "dense/solve-fwd": "c86d62c9f64b75b9e79699dfa626c94bbda33386a76b3ccbe791909ddc8e3be7",
    "dense/check-gauge-fwd": "20fcf95b4982179dbdf96d194a3bda14cafe80a21f62cc900a5645e4f72f8b27",
    "dense/check-admissibility-fwd": "568d1176b6107180d40ccca379a1aa21380d4bf1bb6c3722529e571b0004e7b9",
    "dense/check-decomposition-fwd": "b7b1fd5aebff1f4557217b58932cdd8eff3f5d8da28f1434536a4ff5e2a874b4",
    "dense/check-commute-fwd": "de56ddaa253f25fa5e73501f2e6ae20a1ebf768cce414653971c3398ef876826",
    "dense/check-all-fwd": "cb23767a92374e24089c65c26a485b9b4aca1e40f77884647b77a4aabe793cce",
    "dense/check-interaction-fwd": "5e8fad4261fd2b7e928b51b683460255a7b4da163fc24b418af41f5b392ecfab",
    "dense/construct-fwd": "f8088a32514a73fc5365b2ae1fa69fd12c89127a62f0bfa9af2bd24a93c18058",
    "dense/solve-swp": "351b890cb560014c22d3a0b9186ec3b8bf44c772445d32ece3e4f42123f7c7d8",
    "dense/check-gauge-swp": "86cd6dc171becb78f5ae0932951dd72bbe96b74240db1b88ee2742e58373508b",
    "dense/check-admissibility-swp": "3e8b89633e4f2b58f6f07d8d6bb2e07d3ec0eee7287b14a1cd7668e32e30e318",
    "dense/check-decomposition-swp": "bf1921b0af0471b39562b1930eda956fd25b349caa8fa8d14d8a040861631ada",
    "dense/check-commute-swp": "af85790588e0b1571cc6f7586dd4252abe90bdad0934e54b9384172d297ab97d",
    "dense/check-all-swp": "396da7e37de1a6626cde783ee3ecf151b2c8b8ddd40b0446099107fd32c51850",
    "dense/check-interaction-swp": "a5dc6784966efb5523ad44aa02581ef4323fed49338970422989526be5ca721a",
    "dense/construct-swp": "118ce14f6259626d3288d9358e0bfbbf8199f9ac22e1c5ce47c89af2e776304e",
}


def test_cli_bytes_match_golden(tmp_path, capsys):
    digests = run_all(tmp_path, capsys)
    assert list(digests) == list(GOLDEN)
    changed = [label for label, digest in GOLDEN.items() if digests[label] != digest]
    assert changed == []


def test_every_report_re_renders_to_its_bytes(tmp_path, capsys):
    """Each report and artifact is `dumps_report` of its own parse, which pins the
    writer's bytes without a reference to it."""
    texts: list[tuple[str, str]] = []
    run_all(tmp_path, capsys, texts)
    assert len(texts) > len(GOLDEN)
    changed = [label for label, text in texts if text != dumps_report(json.loads(text)) + "\n"]
    assert changed == []
