"""Golden CLI corpus: the stdout of a fixed set of small commands, by sha256.

Every command's output is pinned byte for byte, so a refactor that changes
any printed digit, row order or comment line fails here.  Update a hash
only for an intended change of output.
"""
import hashlib

import pytest

from selfaffine.cli import main

PAIRS = {
    "doubling": "dim 1\nmatrix\n2\ndigits\n0\n1\n",
    "negabinary": "dim 1\nmatrix\n-2\ndigits\n0\n1\n",
    "collider": "dim 1\nmatrix\n4\ndigits\n0\n1\n2\n8\n",
    "cantor": "dim 1\nmatrix\n3\ndigits\n0\n2\n",
    "dragon": "dim 2\nmatrix\n1 -1\n1 1\ndigits\n0 0\n1 0\n",
    "spiral": "dim 2\nmatrix\n1.9 -0.7\n0.7 1.9\ndigits\n0 0\n1 0\n0.37 0.71\n",
    "collider3": "dim 3\nmatrix\n3 0 0\n0 3 0\n0 0 3\ndigits\n0 0 0\n1 0 0\n3 0 0\n",
}

# (argv with {pair} placeholders, sha256 of stdout)
CORPUS = [
    (("expand", "{doubling}", "--level", "3"),
     "7a68470ef9cf50a5ebf390fbbbfb2d2303732478862bdd5213d7e9e89165d4a0"),
    (("expand", "{dragon}", "--level", "4"),
     "987049233bd9dcebdbe640a4f3de8d0bfec0ac90dd04afe4d2c2922c6851ff5f"),
    (("check", "{collider}", "--level", "4"),
     "13f147274a2267dc7ce9aaa90e89c1f1f9022a654bf4dc2d5e2e65c9407060ef"),
    (("check", "{cantor}", "--level", "6"),
     "3bd8dc7c4245b01d34f1793e9688aa099340dda47eeb5056ce925c128d7d667c"),
    (("check", "{dragon}", "--level", "8"),
     "8aa365eaf9b2a1ef0e8dc6b24ca60274f63e71bed03a830a89e6bb4a80bfcfd3"),
    (("check", "{spiral}", "--level", "6"),
     "f501d8b5ada32ac7397458a98ba23d2dcbbcee0e7bcdf7f7b7194f3b84e37c95"),
    (("check", "{collider3}", "--level", "3"),
     "e2d86fc176b93bba1f2af213397a819021cefed2000234a0ec0ac88f9dc15dab"),
    (("density", "{doubling}", "--level", "8", "--windows", "geo:4,64,5"),
     "bad69468e3034a64db1e3aace00820b728088227af768d077a692e1af7b88fe4"),
    (("density", "{negabinary}", "--level", "7", "--windows", "lin:2,20,4"),
     "93397923d7c6f93c564b7b3023f3b8e1cd71523c252f4a6a4f91ae88f065c687"),
    (("density", "{dragon}", "--level", "8", "--windows", "natural:4"),
     "8c45569c1cae54aa08cc293e0148ff12873fbb96bba06fce9b83f5f0e675866d"),
    (("sdensity", "{cantor}", "--level", "8"),
     "b83eb14e67716cbdd4436492dbce2f5762527926029a95186f74ea9a23201fd6"),
    (("sdensity", "{cantor}", "--level", "6", "--s", "0.5", "--thresholds", "geo:0.5,8,5"),
     "b688bac61ccaea83edc3fd234a94bb3c7c8d216ed4ec5bb905443a6fdb9ade90"),
    (("sdensity", "{cantor}", "--level", "6", "--thresholds", "lin:1,9,3"),
     "22135e17b74ee475209c1c2775a6a44c50efaaefd7fefb366be4a64ba955bc57"),
    # the benchmark's s-density command
    (("sdensity", "{cantor}", "--level", "12"),
     "a5fa62e77055975214b4dab2b778411231b4da2ac697168e92e5f5c462d8bee0"),
    # thresholds 2 and 26 equal the interval lengths 3^1 - 1 and 3^3 - 1
    (("sdensity", "{cantor}", "--level", "6", "--thresholds", "lin:2,26,4"),
     "6ab8ccca6f0eb8783112cdf1da19403eb8bd3fdb263dd96b10a16c7b0d9b7e3c"),
    (("raster", "{doubling}", "--resolution", "16"),
     "52796461dcfd548b64f274e1b3280d275d794d1d634d482c70c8f65c49fd1e89"),
    (("raster", "{dragon}", "--resolution", "24"),
     "6f9307e7a0c6babb714bddd30a066cf1262fa90303597da1ae92836396857624"),
    (("classify-origin", "{negabinary}", "--level", "9"),
     "548e9312bf01abef1df410a1e4a37a9577c12ed27af4203b6b0eace89638a320"),
    (("cantor", "--N", "3", "--d", "2", "--op", "count", "--coeffs", "2,0,2"),
     "1c8cfc10cdf623f3996e1894a9c7ad32b3ae56beea75af862901c15010d1e265"),
    (("cantor", "--N", "3", "--d", "2", "--op", "hmeasure"),
     "2122f720136b14e65bb13c6316adaf96bd985fd1eddc4088fb7a186db3dde624"),
    (("cantor", "--N", "4", "--d", "1", "--op", "sequence", "--m-max", "5"),
     "5405ad09013de0cc242da6f8d868779036c8b3f7370ef0e76be8fa92a20de30a"),
    (("cantor", "--N", "3", "--d", "1", "--op", "dominance", "--level", "6"),
     "c353d2a1f37e21dcba4c4a9be79aebb81227aa1f4f0fcce96779924057d98b47"),
    (("renorm-check", "{cantor}", "--window", "0,0.5", "--steps", "2",
      "--samples", "4000", "--seed", "11"),
     "fbb7d87fed476fc8eed2545f9c9a65efb5234479be01d1575f03daa41caf199a"),
    # a 2-D row whose lower half is empty: window 40 exceeds the next level
    (("density", "{dragon}", "--level", "6", "--windows", "geo:1,40,3"),
     "a5b816e50ea202410ca8550f506136668c553f96410519a2723396f9bf68b727"),
    # an unverified witness, printed without observed=
    (("check", "{collider}", "--level", "3", "--cap", "100"),
     "0c5dfde4ad8c918801a3f2d5c344e17dce2cf94aa96599ce809fb7c68c995f4b"),
    # weights above 1
    (("expand", "{collider}", "--level", "2"),
     "9bb94a796b774877d155214ab086189e9a2e11bc7a7395b2d3c663f0a13f1caa"),
    # 2-D window scans on an irrational set (no repeated x or y) and on a lattice
    (("density", "{spiral}", "--level", "5"),
     "3b7a6c64f9e0daa3f0bb7c36b971be045bf542451ffaed8445b0b94915b251be"),
    (("check", "{dragon}", "--level", "12"),
     "d32898da1827c10aabd2f4d840372b43edea1542504494192556b227785dfc89"),
    (("classify-origin", "{dragon}", "--level", "10"),
     "1172ce175d0ac8c2e0a834e4c6a0ce70fd9024b9dc3b6316b3f28ca0e4540cb4"),
    (("raster", "{spiral}", "--resolution", "48"),
     "36e3bffed0cda8c2353b031de21ea150eb6a8c864feb83c626d1503053b714c0"),
]


@pytest.fixture(scope="module")
def pair_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, text in PAIRS.items():
        path = root / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def _argv(template, paths):
    argv = []
    for arg in template:
        if arg.startswith("{"):
            argv += ["--pair", paths[arg[1:-1]]]
        else:
            argv.append(arg)
    return argv


@pytest.mark.parametrize(
    "template,digest", CORPUS, ids=[" ".join(t[:1] + t[2:]) for t, _ in CORPUS]
)
def test_golden_stdout(template, digest, pair_paths, capsysbinary):
    assert main(_argv(template, pair_paths)) == 0
    out = capsysbinary.readouterr().out
    # the pair path is a temporary directory; hash the output with it replaced
    for name, path in pair_paths.items():
        out = out.replace(path.encode(), f"{name}.txt".encode())
    assert hashlib.sha256(out).hexdigest() == digest
