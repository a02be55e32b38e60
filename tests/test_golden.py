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
    "evengrid": "dim 2\nmatrix\n2 0\n0 2\ndigits\n0 0\n2 0\n0 2\n2 2\n",
    "diagonal": "dim 2\nmatrix\n1 -1\n1 1\ndigits\n0 0\n1 1\n",
    "seven": "dim 1\nmatrix\n7\ndigits\n0\n1\n5\n",
    "neartie": "dim 2\nmatrix\n3 0\n0 3\ndigits\n0 0\n4e-10 1\n0 2\n",
    "negzero": "dim 1\nmatrix\n2\ndigits\n-0\n1\n",
    "balanced": "dim 1\nmatrix\n-3\ndigits\n-1\n0\n1\n",
    "gapped": "dim 1\nmatrix\n2\ndigits\n0\n3\n",
}

# (argv with {pair} placeholders, sha256 of stdout[, test id])
# A test id is the argv without its pair; an entry whose id would clash with
# an earlier entry's names its pair in an id of its own.
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
    # lower entries trusted TTTTTTuu: a scan from the largest size down
    # passes two untrusted sizes before the trusted one it reports
    (("classify-origin", "{negabinary}", "--level", "7", "--windows", "lin:21.25,170,8"),
     "2791464d5eee3129d6b3e32425f0142d16efd8dc7fd50ab30ac4253d552af6bb"),
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
    # 1-D lower scans: weights above 1, and a two-sided support whose window
    # sizes equal coordinate gaps
    (("density", "{collider}", "--level", "6"),
     "e4112a0fe7f24be6ad47000fe31931addb84cdb7753ea13291f9378dd5d27e99"),
    (("density", "{negabinary}", "--level", "7", "--windows", "lin:2,8,4"),
     "a4e9cc2a45e580fa5b91bf7f195b23dfca6aebc7496a8dcedb802cfef8242487"),
    # expand columns: non-integral and negative values whose repr is longer
    # than 12 significant digits, negative integers, and three coordinates
    (("expand", "{spiral}", "--level", "3"),
     "ba88f1871605842b6e0d13b4056dbf6eaca5dd7c79287f58014bd8f7460f9823",
     "expand spiral --level 3"),
    (("expand", "{negabinary}", "--level", "5"),
     "aa0e26b25d0c03e12400a078ccd66c9e562aa0e9b9637f39170ae8951b3f3bf6"),
    (("expand", "{collider3}", "--level", "2"),
     "f1caab7af44e5f0cff51fa7044ae1c7075a72c9965b095e8ff25871daeb1f1ab",
     "expand collider3 --level 2"),
    # a 1-D integral set too sparse for a rank table: the scans search
    (("density", "{cantor}", "--level", "6"),
     "29f3138871a8efcd0f22ec2d5b870ce7a1f3236748531d15a302160f83f001c0",
     "density cantor --level 6"),
    # lattice points 2 apart, and points sqrt(2) apart: integer sets whose
    # minimum separation the grid pass finds
    (("check", "{evengrid}", "--level", "8"),
     "9c79581e8cce29ebac301f6752994aae82e3ec6de7d36c7281b64dfb07f1929c",
     "check evengrid --level 8"),
    (("check", "{diagonal}", "--level", "8"),
     "27bdf75d3728b9bdedd6c0b25f95d1685cf97fcbd3101c116302d8d6265d9e65",
     "check diagonal --level 8"),
    # a raster stopped before its fixed point
    (("raster", "{dragon}", "--resolution", "64", "--max-iters", "3"),
     "b49ee50015f36761a7753dcaaeab0a2224f1c63e965378d9f456e8000a3c2684"),
    # the chaos game with a tail block, a negative ratio, and 2-D
    (("renorm-check", "{cantor}", "--window", "0,0.5", "--steps", "4",
      "--samples", "100000", "--seed", "3"),
     "c78b1d7a67589894a5380ab7cd514eca1c622eb70bfe7cedfecaef85198440a6"),
    (("renorm-check", "{negabinary}", "--window=-0.5,0.5", "--steps", "3",
      "--samples", "20000", "--seed", "5"),
     "cc01f497890f6a39b4900d893a182783a96f7eab0ba605925fddbe4bd0666fbf"),
    (("renorm-check", "{dragon}", "--window=-0.3,0.4,-0.2,0.5", "--steps", "3",
      "--samples", "20000", "--seed", "5"),
     "e4403335443a7e860bcd6271b86280d47c7d13d70121682bf0b02c6ca7a833be"),
    # the benchmark's seeded renormalization check; weights above 1 through
    # the per-sample test; and the blocked chaos game in 2-D, off the
    # lattice, and in 3-D
    (("renorm-check", "{cantor}", "--window", "0,0.5", "--steps", "4",
      "--samples", "1000000", "--seed", "1"),
     "3635998cb5bbf48356eb7ed0bebd63e343173a178e97794416595f9f458ccc26"),
    (("renorm-check", "{collider}", "--window", "0.1,0.9", "--steps", "3",
      "--samples", "30000", "--seed", "2"),
     "4d7644ca10876433000026dab45c972d85dfe9f87be8f11641671a8e17aa135f"),
    (("renorm-check", "{spiral}", "--window=-0.2,0.6,-0.1,0.7", "--steps", "2",
      "--samples", "30000", "--seed", "3"),
     "587a80fda5c62e90e4026533e4fb74b00122dd0adcf35e366a9459c85772a30c"),
    (("renorm-check", "{collider3}", "--window=0,0.5,0,0.5,-0.1,0.1", "--steps", "2",
      "--samples", "30000", "--seed", "4"),
     "febf5483ae12737b756fd2d9a0159f1efa50cb027728c224aab28d8bdb7aba54"),
    # dominance on a set too sparse for a rank table even at n(n + 1)/2
    # lookups, and on a non-integral set
    (("cantor", "--N", "4", "--d", "3", "--op", "dominance", "--level", "8"),
     "5e2bf88a73bb85d991d2c384027e3289f94baf0d95892e1b2ed9f60e18e6a8ee"),
    (("cantor", "--N", "3.5", "--d", "1", "--op", "dominance", "--level", "7"),
     "fa8495d336344796c04b635e89b55212f4e2b9fe8f1d956815981ad07fb3aa78"),    # s-densities off the two-digit Cantor family: a near-tied set at s = 1,
    # whose tile bounds prune almost nothing, and a three-digit pair
    (("sdensity", "{doubling}", "--level", "10"),
     "0b4eb3c92a072b8f7ab10c268bfcb5a1edf47a80f1da67e1b88d08ec6f3c0f93",
     "sdensity doubling --level 10"),
    (("sdensity", "{seven}", "--level", "6"),
     "7d0250fa9553569359b5b4236e6508c17886a3d1028ff7ea107bc8a1ce9dd244",
     "sdensity seven --level 6"),
    # x values 0 and 4e-10 share merge key 0 without being equal: rows come
    # by x, where merge-key order would put (4e-10, 1) between (0, 0) and (0, 2)
    (("expand", "{neartie}", "--level", "2"),
     "3c4806d47f16c2c022912b9f58d4070da98322fa19b000448e28945d15f27e60",
     "expand neartie --level 2"),
    # integral 1-D levels: a -0 digit, which prints -0; negative digits
    # under a negative matrix; a lattice with gaps; and a verdict over ten
    # levels of a two-sided tile
    (("expand", "{negzero}", "--level", "1"),
     "245941e4718caa4b20a18facc82f4de2ace1a9798a847ce5dec5c8dc3505eb15"),
    (("expand", "{balanced}", "--level", "6"),
     "e803a2bbba1c4b15d323f882a2cde2d70a2a28eb69760f043aa9d817ea3716ef"),
    (("density", "{gapped}", "--level", "10"),
     "fe6519c1ba2a1526c9ea227654548b491c0c5439fa6dda923f3573986428fb4b"),
    (("check", "{negabinary}", "--level", "10"),
     "5e31eb62b19cb6156a0c0fbccf81736bea552c1013a75ee38c4c7d3e4f32e7fa"),
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
    "template,digest",
    [entry[:2] for entry in CORPUS],
    ids=[entry[2] if len(entry) > 2 else " ".join(entry[0][:1] + entry[0][2:])
         for entry in CORPUS],
)
def test_golden_stdout(template, digest, pair_paths, capsysbinary):
    assert main(_argv(template, pair_paths)) == 0
    out = capsysbinary.readouterr().out
    # the pair path is a temporary directory; hash the output with it replaced
    for name, path in pair_paths.items():
        out = out.replace(path.encode(), f"{name}.txt".encode())
    assert hashlib.sha256(out).hexdigest() == digest


def test_corpus_prints_the_same_bytes_after_a_usage_error(pair_paths, capsysbinary):
    # one parser serves every call of main in a process
    def outputs():
        outs = []
        for template, *_ in CORPUS:
            assert main(_argv(template, pair_paths)) == 0
            outs.append(capsysbinary.readouterr().out)
        return outs

    first = outputs()
    with pytest.raises(SystemExit) as exc:
        main(["density", "--pair", pair_paths["doubling"], "--level", "x"])
    assert exc.value.code == 2
    assert b"invalid _positive_int value" in capsysbinary.readouterr().err
    assert outputs() == first
