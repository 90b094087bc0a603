"""Pinned output bytes of every CLI command over one small seeded pipeline.

One in-process run at 72x128: `model`, four noisy synth trees (seeds 0-1,
full and partial views), then `decode`, `localize`, `eval` and `loss`, and a
beta and a tolerance sweep over the seed-0 full-view tree. A second `decode`
and `localize` take a seed-0 partial-view frame, whose lane-rope detections
give line constraints. Each output, stdout or file, must
hash to the SHA-256 digest pinned below. Like perfbench/digests.json, the
digests depend on the numpy version (they were taken with numpy 2.4.6): a
numpy upgrade may change float results in their last digits, and so these
bytes.
"""

import hashlib

from poolkey.cli import main

GOLDEN = {
    "model stdout": "ae43a3d7da87c6259ae79d96fde2e4bcf7f146f09a15bba6527901b6b0159fc3",
    "model --out": "ae43a3d7da87c6259ae79d96fde2e4bcf7f146f09a15bba6527901b6b0159fc3",
    "synth 0 full stdout": "f65ebba6af7c8f415218a058a0abd07b0b336a55f2326870785546fca8f1a9b6",
    "synth 0 full annotations/scene_0000.json": "b218f58f405d2adf92aab273c9eed70d2e071ebcdc11376c509314f8270c9a98",
    "synth 0 full annotations/scene_0001.json": "cb391d361e1327be7a93e0363d4149e22e5b1cfdbbef8c2716792cce3bc702d7",
    "synth 0 full homographies/scene_0000.json": "879767804aa9f7a33c83a8943ee48166c5e36ce38499ab634582236f647e3847",
    "synth 0 full homographies/scene_0001.json": "b2937429492a3a8450f31b268542d05a2009c8dac7aeee6d272d01009d0fd6c4",
    "synth 0 full manifest.json": "e532707145ef26fafa332858a3edb42d5ed4dcc7841ce66cd7b2f110ad1cabdc",
    "synth 0 full volumes/scene_0000.pkhv": "49c6cf181719dc1fdbb696075c9f8dbfba4eca5a181dc9efe4352be497a789aa",
    "synth 0 full volumes/scene_0001.pkhv": "65091dee3cc08e96aebc188c52d9d15acd5b3cab25e4deb9a980efdd00c0d24c",
    "synth 0 partial stdout": "f65ebba6af7c8f415218a058a0abd07b0b336a55f2326870785546fca8f1a9b6",
    "synth 0 partial annotations/scene_0000.json": "a000dc0d3427d605521b94fc97338668f6615261a1189b1d622f2d0fa5865b12",
    "synth 0 partial annotations/scene_0001.json": "5ff8e8ecb2967a87a9c6f1a0b4da082ffe94f0cb52855140537f146572d33b5d",
    "synth 0 partial homographies/scene_0000.json": "56de8cd6907849cc8361236bbf9456c63d155a83e8452505d92893f8abf0f1c1",
    "synth 0 partial homographies/scene_0001.json": "06e1541d371d3aabcb8022bc008ab0832a316f72310031284c14316c571f960c",
    "synth 0 partial manifest.json": "b53d6dd3253e5d296bec8ce3116bc7f27030d7f6ec005d22df9c71285f276162",
    "synth 0 partial volumes/scene_0000.pkhv": "0af6573dd3b2c43fc91c81b44ee62c7f568ecd6e90dd91830666f2b758da8be1",
    "synth 0 partial volumes/scene_0001.pkhv": "b13908f67362aca67a82735776fbb417b53982b7bc167443a4ace433be03adb4",
    "synth 1 full stdout": "f65ebba6af7c8f415218a058a0abd07b0b336a55f2326870785546fca8f1a9b6",
    "synth 1 full annotations/scene_0000.json": "6ff06a3ed47aab2ae6b60960cce01db4c7278dbc0065d38a0dd47ba959cf3b83",
    "synth 1 full annotations/scene_0001.json": "0871d5a6ad6b1f7c9e99797de76cae1d9f3e9dc710c87996b0d2b33110eb5487",
    "synth 1 full homographies/scene_0000.json": "95352d15aaabccd62fa720ad4970dd65a2a78fa20dfb0b2c940d8454db3b1005",
    "synth 1 full homographies/scene_0001.json": "6883dc441331214728d12936d5b09a093f8b8be3e07882c5fd39abdf5c8f012d",
    "synth 1 full manifest.json": "67404aa2992806488a79234f33c7658b9a5a2ad5d3c167a5570c9d4fdde5f179",
    "synth 1 full volumes/scene_0000.pkhv": "0f4e58ef76c4028b7e16bf55539a88c9d042886b04910caeb061ef557f724c45",
    "synth 1 full volumes/scene_0001.pkhv": "c189f7b1a18db4b468ade8995ae21753a6645ce8746612532f760324a55563e7",
    "synth 1 partial stdout": "f65ebba6af7c8f415218a058a0abd07b0b336a55f2326870785546fca8f1a9b6",
    "synth 1 partial annotations/scene_0000.json": "1a247208c31bde1059c1b171ad357f52d95abdc7b2d2e351d3b89c041b2baf5f",
    "synth 1 partial annotations/scene_0001.json": "227242d25ab4edf56540199d17e5e45b16bcaf40c90c7b663a0384993403a78e",
    "synth 1 partial homographies/scene_0000.json": "28b657dadd036b421778a3e335b3103ef5755b298f1fd1b9f4abc292bf4eb734",
    "synth 1 partial homographies/scene_0001.json": "dbed55edaa816f153338920102950adbdc967e68cd323c1e88e5a4bfaeb74eaa",
    "synth 1 partial manifest.json": "ea42fd2093eeb1258356f3d7196b16ae3773060e52f2332a2d22342c86e324af",
    "synth 1 partial volumes/scene_0000.pkhv": "c894c85402f7885fc4d09772b8b2a79d84adf357baef4e722a59bc06144c8f70",
    "synth 1 partial volumes/scene_0001.pkhv": "7a735935dd9e86ca638727e36e77b5e85e542e2c1a944dab353ff3d235df488a",
    "decode stdout": "bfa4aded63fbfb09a112f42fc558fa5e0f1c1605ac690d2aa61e80bdb5f4a4f3",
    "decode --out": "bfa4aded63fbfb09a112f42fc558fa5e0f1c1605ac690d2aa61e80bdb5f4a4f3",
    "localize stdout": "3b20b55940ee2c06ac9eb4d6b7623ead4f9a37e37d18c03df8dfb8f283a6d38c",
    "localize --out": "3b20b55940ee2c06ac9eb4d6b7623ead4f9a37e37d18c03df8dfb8f283a6d38c",
    "eval stdout": "50422dcdd92ee9ddce0b7e34b3adddb25e149e723bf4e320607de137bd0d8aa4",
    "eval --out stdout": "d47b3f13812a9feb8e0fc4848406f8c7668046cf67913a91162b19b84882915e",
    "eval --out": "50422dcdd92ee9ddce0b7e34b3adddb25e149e723bf4e320607de137bd0d8aa4",
    "eval --per-class": "18b1b614207ef5326900c7c89d87bab746051959c38e7b585282a4ac864e2130",
    "eval --per-keypoint": "18b1b614207ef5326900c7c89d87bab746051959c38e7b585282a4ac864e2130",
    "sweep beta csv": "8b4711356f91b716a1fe5abe3362d81c4d45dbf48f52cfa322f7d06f8c931e5a",
    "sweep tolerance csv": "481215ab981bbeda4570bdfa684ad94654f51a3e87df1f13b9480d5f0925df8a",
    "decode partial --out": "7d8dc1eeb9b534f591683d1a4f857a3b01ff4295b800029c7f381620608e03d0",
    "localize partial --out": "4127d57fa08c7bd8309f73fbafdadf095666d09cd901127839b0a9a668f242e4",
    "loss stdout": "abc43df7cf6b2d128767c8443cce5645bda27f36e7c656c80f9992fe5dda9ac6",
}


def _run(capsys, *argv: str) -> bytes:
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.encode()


def _pipeline_outputs(root, capsys) -> dict[str, bytes]:
    """Every output of the pipeline, stdout included, by a stable name."""
    outputs = {}
    model = root / "model.json"
    outputs["model stdout"] = _run(capsys, "model", "--lanes", "8", "--length", "50")
    _run(capsys, "model", "--lanes", "8", "--length", "50", "--out", str(model))
    outputs["model --out"] = model.read_bytes()
    for seed in ("0", "1"):
        for view in ("full", "partial"):
            tree = root / f"synth-{seed}-{view}"
            outputs[f"synth {seed} {view} stdout"] = _run(
                capsys, "synth", "--model", str(model), "--count", "2",
                "--rows", "72", "--cols", "128", "--view", view, "--seed", seed,
                "--loc-sigma", "1.5", "--dropout", "0.1", "--fp-rate", "0.05",
                "--out", str(tree),
            ).replace(str(tree).encode(), b"<out>")
            for path in sorted(p for p in tree.rglob("*") if p.is_file()):
                name = path.relative_to(tree).as_posix()
                outputs[f"synth {seed} {view} {name}"] = path.read_bytes()
    data = root / "synth-0-full"
    volumes, annotations = data / "volumes", data / "annotations"
    volume = str(volumes / "scene_0000.pkhv")
    detections = root / "detections.json"
    outputs["decode stdout"] = _run(capsys, "decode", "--volume", volume)
    _run(capsys, "decode", "--volume", volume, "--out", str(detections))
    outputs["decode --out"] = detections.read_bytes()
    located = root / "localize.json"
    localize = ("localize", "--detections", str(detections), "--model", str(model))
    outputs["localize stdout"] = _run(capsys, *localize)
    _run(capsys, *localize, "--out", str(located))
    outputs["localize --out"] = located.read_bytes()
    pairs = ("--pred-dir", str(volumes), "--gt-dir", str(annotations))
    outputs["eval stdout"] = _run(capsys, "eval", *pairs)
    report, per_class = root / "report.json", root / "per_class.csv"
    outputs["eval --out stdout"] = _run(
        capsys, "eval", *pairs, "--out", str(report), "--per-class", str(per_class)
    )
    outputs["eval --out"] = report.read_bytes()
    outputs["eval --per-class"] = per_class.read_bytes()
    per_keypoint = root / "per_keypoint.csv"
    _run(capsys, "eval", *pairs, "--out", str(report),
         "--per-keypoint", str(per_keypoint))
    outputs["eval --per-keypoint"] = per_keypoint.read_bytes()
    sweep = root / "sweep.csv"
    _run(capsys, "sweep", "--mode", "beta", "--grid", "0:1:0.1", *pairs,
         "--out", str(sweep))
    outputs["sweep beta csv"] = sweep.read_bytes()
    _run(capsys, "sweep", "--mode", "tolerance", "--grid", "1:10:1.5", *pairs,
         "--out", str(sweep))
    outputs["sweep tolerance csv"] = sweep.read_bytes()
    partial = root / "synth-0-partial" / "volumes" / "scene_0000.pkhv"
    _run(capsys, "decode", "--volume", str(partial), "--out", str(detections))
    outputs["decode partial --out"] = detections.read_bytes()
    _run(capsys, *localize, "--out", str(located))
    outputs["localize partial --out"] = located.read_bytes()
    outputs["loss stdout"] = _run(
        capsys, "loss", "--pred", volume,
        "--target", str(volumes / "scene_0001.pkhv"),
    )
    return outputs


def test_cli_outputs_match_the_pinned_digests(tmp_path, capsys):
    outputs = _pipeline_outputs(tmp_path, capsys)
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in outputs.items()}
    assert digests == GOLDEN
