"""Golden SHA-256 digests of CLI stdout.

Each digest was recorded from the ``Fraction`` elimination that preceded the
integer elimination core, so these tests check that the core changed no
output byte: ranks (``hilbert``, ``locus maps``, ``conjecture``), canonical
kernels (``ann``) and the incremental span (``generators``).  The later
``locus``, ``cw`` and ``perazzo build`` digests were each recorded on the
code before the change they guard, as the comments next to them say.
"""

import hashlib
from collections import Counter

import pytest

from apolar import cli
from apolar.cli import main

F25 = "x1^5 - 2*x1^3*x2^2 + 3/4*x1^2*x2^3 + 7*x2^5"
F34 = "x1^4 + 2*x1^2*x2*x3 - 5/3*x1*x2^3 + x1*x2*x3^2 + x2^2*x3^2 - 3*x3^4"
G34 = "2*x1^3*x2 - 1/2*x1*x2^3 + 3*x2^2*x3^2 + x3^4"
ALIGNED = "x1^3 + x1^2*x2 + x1*x2^2 + x2^3"
# pool form 109 of the benchmark, which reads "verified": false
C33 = "x1^3 + x1^2*x2 + x1*x2*x3 + x1*x3^2 + x2^3 + x2^2*x3"
# pool forms 126 and 38, the two slowest generator forms of the benchmark;
# their digests were recorded before the generators moved to integer vectors
P126 = (
    "x1^3*x2 + x1^3*x3 + x1^2*x2^2 + x1^2*x2*x3 + x1^2*x3^2 + x1*x2^3"
    " + x1*x2*x3^2 + x1*x3^3 + x2^4 + x2^3*x3 + x3^4"
)
P38 = (
    "x1^3*x3 + x1^2*x2^2 + x1*x2^2*x3 + x1*x2*x3^2 + x1*x3^3 + x2^4"
    " + x2^3*x3 + x2^2*x3^2 + x2*x3^3 + x3^4"
)
# the full Perazzo forms at (2,5), (2,6) and (3,3), the paper's own forms,
# as `perazzo build` prints them
PERAZZO_2_5 = "x1*u2^4 + x2*u1*u2^3 + x3*u1^2*u2^2 + x4*u1^3*u2 + x5*u1^4"
PERAZZO_2_6 = "x1*u2^5 + x2*u1*u2^4 + x3*u1^2*u2^3 + x4*u1^3*u2^2 + x5*u1^4*u2 + x6*u1^5"
PERAZZO_3_3 = "x1*u3^2 + x2*u2*u3 + x3*u2^2 + x4*u1*u3 + x5*u1*u2 + x6*u1^2"
# cell complexes: one with every variable used, one with a u-block, one with
# an unused variable (a degree-1 non-face)
CW_FORMS = {
    "cw-3-4": ["--poly", "x1^3*x2 + x1*x2*x3^2 + x2^4 + x3^4", "--nvars", "3"],
    "cw-uvars": [
        "--poly", "x1^2*u1 + x2*u1*u2 + x3*u2^2", "--nvars", "5", "--uvars", "2"
    ],
    "cw-unused-var": ["--poly", "x1*x2*x3 + x2^2*x4 + x4^3", "--nvars", "5"],
}
CONJECTURE = ["conjecture", "--n", "2", "--d", "4", "--trials", "20", "--seed", "52004"]

GOLDEN = {
    "hilbert-2-5": (
        ["hilbert", "--poly", F25, "--nvars", "2"],
        "5e3e4543f57275c82a3c1442d4e7c8202d92484b22e22c01b8c66bab62167280",
    ),
    # recorded while "standard" still came from its own rank of C_1; a
    # degree-0 form has no h_1 and must stay non-standard
    "hilbert-degree-0": (
        ["hilbert", "--poly", "3", "--nvars", "2"],
        "1fc8d252551190dc535537db551c9596c84a52f4c460ad373477845b9262691f",
    ),
    "hilbert-3-4": (
        ["hilbert", "--poly", F34, "--nvars", "3"],
        "a93bae5f6738e45003aa745b360c12b2eb5669b77c5e04f986ec73be28c2c239",
    ),
    "hilbert-3-4-diff": (
        ["hilbert", "--poly", F34, "--nvars", "3", "--convention", "diff"],
        "a93bae5f6738e45003aa745b360c12b2eb5669b77c5e04f986ec73be28c2c239",
    ),
    # an aligned form on which the two pairings differ (dual h_1 = 1, diff
    # h_1 = 2); recorded before differentiation became a rescale of the form
    "hilbert-aligned-dual": (
        ["hilbert", "--poly", ALIGNED, "--nvars", "2", "--convention", "dual"],
        "9660fde139d9072ae5fdcb41078a468c9f7b7bedaa0ae1de4db16bc46056fb9f",
    ),
    "hilbert-aligned-diff": (
        ["hilbert", "--poly", ALIGNED, "--nvars", "2", "--convention", "diff"],
        "6d0a73a0a85beab153771c03261430c4761b0d2abc672febf1c645a4fa985d13",
    ),
    "ann-aligned-dual": (
        ["ann", "--poly", ALIGNED, "--nvars", "2", "--degree", "1", "--convention", "dual"],
        "fe97a7b437818d77a73a32093fcb2a613f2d57ec09190d6ae375d3ca35faed86",
    ),
    "ann-aligned-diff": (
        ["ann", "--poly", ALIGNED, "--nvars", "2", "--degree", "1", "--convention", "diff"],
        "a24c61968cba732037903664b707ba617365746a6654bed61c1f9ce6d1b05790",
    ),
    "ann-dual": (
        ["ann", "--poly", G34, "--nvars", "3", "--degree", "3", "--convention", "dual"],
        "bf815a77fac3e35c359a9125626f0946d407f36373f4cf1c212997cc3cb4e993",
    ),
    "ann-diff": (
        ["ann", "--poly", G34, "--nvars", "3", "--degree", "3", "--convention", "diff"],
        "74e9b008227b308d69dc38fc943a2584e5d8f7ab5fe4011322852f78e11454ea",
    ),
    "generators-3-3": (
        ["generators", "--poly", C33, "--nvars", "3"],
        "5012c5a04d6c758a7c67c8b9d382b8055ab0188310bf4c636222979eb7e995fe",
    ),
    "generators-3-3-verified": (
        ["generators", "--poly", "x1^2*x2 + x1*x3^2 + x2^3 + x2*x3^2", "--nvars", "3"],
        "ba1734389518a12c617d231ae52f5b18a719bdfd97116a86e5dcd3792421e4ac",
    ),
    "generators-pool-126": (
        ["generators", "--poly", P126, "--nvars", "3"],
        "989929435648f4b28447725ae9ba6ada745e0baf6e040795e2959cd91162e665",
    ),
    "generators-pool-38": (
        ["generators", "--poly", P38, "--nvars", "3"],
        "90ec47dd6025519539d5855cbcf544917b9ca609f8fd6c844081d876dade5a15",
    ),
    # recorded before the top powers were written by monomials.unit_power;
    # one power in the x-block and one in the u-block
    "generators-power-x": (
        ["generators", "--poly", "x1^3", "--nvars", "2", "--uvars", "1"],
        "8fbae8c08498678f480ecaacb353509a015abd6f071e70b11758d1f552ef365f",
    ),
    "generators-power-u": (
        ["generators", "--poly", "u1^3", "--nvars", "2", "--uvars", "1"],
        "c07fe3f7305374443739383c5a5950e9c1003d84b10ddb168063c98fa47a5ac6",
    ),
    # recorded while verification still wrote every degree's span over the
    # whole degree-j basis, and the image scan was a Gray-code walk
    "generators-perazzo-2-5": (
        ["generators", "--poly", PERAZZO_2_5, "--nvars", "7", "--uvars", "2"],
        "e2a7c8bd9036d245b64dd81b26f99db59a18efca3bc09c447e17ef520a1b45c3",
    ),
    # (2,6) needs a raised subset guard, which the CLI then had no flag for:
    # recorded through cli.main with extract_generators' guard at 2^17
    "generators-perazzo-2-6": (
        ["generators", "--poly", PERAZZO_2_6, "--nvars", "8", "--uvars", "2",
         "--max-subsets", "131072"],
        "98e01b5c85073e5315a86d3df6aaed9d47515c2c5c08e53a6abe98eced2f3df2",
    ),
    "generators-perazzo-3-3": (
        ["generators", "--poly", PERAZZO_3_3, "--nvars", "9", "--uvars", "3"],
        "8f46c77909820b01faa19df03e025ff30eb4a55c76989d7f3d4180e512b08886",
    ),
    "locus-maps-3-4": (
        ["locus", "maps", "--n", "3", "--d", "4"],
        "d4836f242e442a9dd7a32e04e61e199ad3d263fccb2d3cc3f2de8cec526abaa0",
    ),
    # recorded before the projection maps were stored as column images;
    # (4,4) is the largest input the default matrix guard accepts
    "locus-maps-2-6": (
        ["locus", "maps", "--n", "2", "--d", "6"],
        "2ed7ca7987506ac6c84b2898b943a874c09ba8b50c4d29e2f4af7528900455a4",
    ),
    "locus-maps-5-3": (
        ["locus", "maps", "--n", "5", "--d", "3"],
        "88fa3eba8f721e18e5a0ffc43a35f86aa27b12d0b2f2539854b9f618203497d1",
    ),
    "locus-maps-2-7": (
        ["locus", "maps", "--n", "2", "--d", "7"],
        "da09dba73b6bd7205c265dce8cabdb61a17a380ed14de21c8fab48a15a625a6b",
    ),
    "locus-maps-4-4": (
        ["locus", "maps", "--n", "4", "--d", "4"],
        "2a1ec9575d56cf651ae56e069d1a0bcf89187e6a3e02dd197069c1c6734ae4c1",
    ),
    # recorded before any rewrite of the admissible-support enumeration
    "locus-enumerate-3-3-json": (
        ["locus", "enumerate", "--nvars", "3", "--degree", "3"],
        "85dc3b91e87e87131c05636dd70a221f52a70cddd91d9190aed2704f05ef196e",
    ),
    "locus-enumerate-3-3-csv": (
        ["locus", "enumerate", "--nvars", "3", "--degree", "3", "--format", "csv"],
        "375e883d23bb5acb04d90f7254beb99b34d7de2fdd5a478495a00c5804e5f597",
    ),
    # recorded before the basis walk became a non-recursive loop;
    # (3,4) is the command that sets the benchmark's locus call tail
    "locus-enumerate-3-4-json": (
        ["locus", "enumerate", "--nvars", "3", "--degree", "4"],
        "fb848cf4871376d23255da49ef4d347d6639900954353d4089a1e031458168bb",
    ),
    "locus-enumerate-2-6-json": (
        ["locus", "enumerate", "--nvars", "2", "--degree", "6"],
        "772dde39f8eabe16766b22aa7c9a3785b503c49f1538eba25db521552390b679",
    ),
    # recorded on the subset scan, where it took about 40 s; (4,3) is the
    # largest basis (20 monomials) the default enumeration guard accepts
    "locus-enumerate-4-3-json": (
        ["locus", "enumerate", "--nvars", "4", "--degree", "3"],
        "9c6d5ef4c38606dd1fffe9a0eba204624a73768785428cee0c5d2d05cc27772a",
    ),
    "locus-stcheck-3-3": (
        ["locus", "stcheck", "--poly", "x1^2*x2 + x1*x2^2 + x2*x3^2", "--nvars", "3"],
        "0ddb55c2b91646d31a9a028b12c55f8edca39151f9c7fd6e87ec28a3fc51f713",
    ),
    # recorded while h2 still came from its own rank of C_2
    "perazzo-census-2-3": (
        ["perazzo", "census", "--n", "2", "--d", "3"],
        "e9543a80b7183bc96462d4dd8760bb84956a7f5e28d62c6b3c355af825a6b9f1",
    ),
    "perazzo-census-2-4": (
        ["perazzo", "census", "--n", "2", "--d", "4"],
        "1610308371a4d2c7aa356ceeae9ea5d2fa5822bffa188bd2603de41944152c7f",
    ),
    # recorded before the cell complex was built from the facet relation
    "cw-3-4": (
        ["cw"] + CW_FORMS["cw-3-4"],
        "e1ef9d9b26e8f3e7d095e3348d630ff6a12c6661410c54b87d78446da00c0367",
    ),
    "cw-3-4-json": (
        ["cw"] + CW_FORMS["cw-3-4"] + ["--export", "json"],
        "66bd1240bfc59872a1f51cf728ab16e6ff1953d0d0761227bd969d31f597855d",
    ),
    "cw-3-4-dot": (
        ["cw"] + CW_FORMS["cw-3-4"] + ["--export", "dot"],
        "5e196529517bc2fc5da6bbf5412e0166f5280fdb67824969a7dab72d05c8f164",
    ),
    "cw-uvars": (
        ["cw"] + CW_FORMS["cw-uvars"],
        "d33c60a63d288bf7905db5dbbeee08c763c0bf623d3576b1f34388c9da3548e2",
    ),
    "cw-uvars-json": (
        ["cw"] + CW_FORMS["cw-uvars"] + ["--export", "json"],
        "6e209dfffa07f73825a8cda8396b3f0764319cb8c2d34892ddf67d1b665bdabf",
    ),
    "cw-uvars-dot": (
        ["cw"] + CW_FORMS["cw-uvars"] + ["--export", "dot"],
        "913a8e1a8a7fba8a9e153851e2f586e8ff9efb5db2ba4a705ce4df91618a9ece",
    ),
    "cw-unused-var": (
        ["cw"] + CW_FORMS["cw-unused-var"],
        "70832f87e9d228049a6ec3ec713682cdae6a68a96c45d00d2c520e8495fb49e8",
    ),
    "cw-unused-var-json": (
        ["cw"] + CW_FORMS["cw-unused-var"] + ["--export", "json"],
        "2480cf444d1ad2422b9cc62870cccd6066ba3d224c72cff649bfd897e0843fd3",
    ),
    "cw-unused-var-dot": (
        ["cw"] + CW_FORMS["cw-unused-var"] + ["--export", "dot"],
        "3312caa18f8fa105e4ca5e72e85aac010d212eb2530f37ebcddf327d9980d8a4",
    ),
    "perazzo-build-2-3": (
        ["perazzo", "build", "--n", "2", "--d", "3"],
        "1789eb5259d72c50921f498f75c8d0db756e4f9cdd7471c1de1b8d6e094a3cdb",
    ),
    "conjecture-jobs1": (
        CONJECTURE + ["--jobs", "1"],
        "e12aed43f8612bed6cadaa78b887ab7b3f91f7e5f51e818078ee3c408f565ab1",
    ),
    "conjecture-jobs2": (
        CONJECTURE + ["--jobs", "2"],
        "e12aed43f8612bed6cadaa78b887ab7b3f91f7e5f51e818078ee3c408f565ab1",
    ),
    # recorded while every draw's C_j was still ranked to its full rank
    "conjecture-2-4-300": (
        ["conjecture", "--n", "2", "--d", "4", "--trials", "300", "--seed", "77"],
        "ea7e6894d0dbd2fa86f380d2e5de63b07ee065b4b54c718414df39da03b66a4e",
    ),
    "conjecture-2-5": (
        ["conjecture", "--n", "2", "--d", "5", "--trials", "20", "--seed", "2605"],
        "ec9b14fca36a914e0f34210c3d0eb1822afabc31e803640e1c1b89c0103fa057",
    ),
    "conjecture-3-4": (
        ["conjecture", "--n", "3", "--d", "4", "--trials", "8", "--seed", "2634"],
        "b6cf2bf4a325d20ec5986a43dd52e4526de073de7eba435a56ff60925594c554",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_stdout_matches_golden_digest(name, capsys):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# help texts and usage errors at COLUMNS=80, recorded before the process-pool
# import moved into the pool's branch (argparse's gettext lookup imports
# ``locale``, which the pool import used to load first)
HELP = {
    (): "66d6df71a97072f62d4d19e0fc5f24b4ea291a713c7a56aa659116f40d8b127f",
    ("hilbert",): "a40e5f79e827cf50ef0fbddd4eabb512e93f14c6f41d8063056a7387a889144f",
    ("ann",): "afc226e3b9a5f7f531f7d0dd30eab9d64abfb25d90995e003dbfa62a3fbef984",
    # re-recorded when the row gained --max-subsets
    ("generators",): "a4898bc0065ec87f3810ef5293fe161386d00465f320c8e5e327184a9b6ef26f",
    ("cw",): "fb82350ec420e6fe56f35a14b0653c7e92b7c46983127a9e8953498162016c29",
    ("locus",): "1578224d5b94bda48f6797e055b6c257648472ad103754d5d8e9a202689c64a9",
    ("locus", "enumerate"): "a30694ae0a3d6aa7276f8070989d74ab0d127daced5ec55aa9fa9cddabe3aa06",
    ("locus", "stcheck"): "1fcde3509c1512c66d36bcc86ae6fa926534876d6a890d3f9b64b857d21abd8c",
    ("locus", "maps"): "0dd24bff840a48a6cd5428222408548c15783e3b717ec1befbc11ad4b1c19b78",
    ("perazzo",): "f526b30ed60c3e9d2e78b0ab59da2aeac6b7c50937270b343c46aeb45f795349",
    ("perazzo", "build"): "3474d02b27e913ed4e4f73937a11fc87736f456449be3a4bcb4000e3499aacd2",
    ("perazzo", "hilbert"): "2c42b1f5b60968cd25038e3df382664446f0b4cb7ac3863b5241c5b5a479aea5",
    ("perazzo", "census"): "8a22287a11718c1518e003308821c7beb0fc7a4986b782ba4e56faf03847e997",
    ("conjecture",): "7ee91c9510b5dcd8fdb2376abbaf488741f1c86bb32232c323bafd576988a01c",
}
USAGE_ERRORS = {
    "missing-option": (
        ["hilbert", "--nvars", "2"],
        1,
        "3d1579f3f77cf8d34b367d3e66b467bb0483813757075e119d4e2b73d60f5e47",
    ),
    "invalid-command": (
        ["frobnicate"],
        1,
        "4fd6312e6c5066d5a6d3e986c3a6e51c3c449b371c7eacb5c964172a4c4d3bba",
    ),
    "non-integer-n": (
        ["locus", "maps", "--n", "x", "--d", "3"],
        1,
        "5f681ba35c5198ea14a769a6c969108dd9fe599d5f65dfef6c9b251eda1bf317",
    ),
    "jobs-0": (
        ["conjecture", "--n", "2", "--d", "4", "--trials", "2", "--seed", "1",
         "--jobs", "0"],
        1,
        "0ac6e905b14458c191ef1bbce5498351ac6bb1afe316499e7b8c04c272884438",
    ),
}


@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: " ".join(c) or "top")
def test_cli_help_matches_golden_digest(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*command, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == HELP[command]


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_cli_usage_error_matches_golden_digest(name, capsys, monkeypatch):
    argv, code, digest = USAGE_ERRORS[name]
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert hashlib.sha256(captured.err.encode()).hexdigest() == digest


EMPTY = hashlib.sha256(b"").hexdigest()
# argv where a parser tree built piece by piece could part from one built
# whole: an unknown option left over for the top parser, errors and help
# from a group parser, options before the command, a "--", an abbreviated
# option and -h at each level; (argv, exit code, stdout digest, stderr
# digest) at COLUMNS=80, recorded while build_parser built every parser
EDGE_CASES = {
    "unrecognized-after-leaf": (
        ["locus", "maps", "--n", "2", "--d", "3", "--bogus"],
        1,
        EMPTY,
        "48c6a63e2dffdae9fb7252baa9f2795f4c0f53aa784d1d84b889d82a2b8358e5",
    ),
    "group-invalid-choice": (
        ["locus", "frobnicate"],
        1,
        EMPTY,
        "a445f6cd191f41474fb921a087ea64c23d875ff942b3fae4d7805e7a07121153",
    ),
    "group-bare": (
        ["locus"],
        1,
        EMPTY,
        "ae1beeb489bc4dd2253b96328e24a74a59d9f0c2d994abdc57e58b78f9e85436",
    ),
    "unknown-option-first": (
        ["--bogus", "hilbert"],
        1,
        EMPTY,
        "287a50d6246cfeb821bc7a412d6ab590c7aad99c4a21176db395a3427abc4d4a",
    ),
    "double-dash": (
        ["--", "locus", "maps", "--n", "2", "--d", "3"],
        1,
        EMPTY,
        "3e95d91a9eedc0a734dfbcf7b86ae1a3c57e014d2cac11122dc628ffb4947cf8",
    ),
    # --ma is --max-dim abbreviated: a guard of 5 stops (2,3) with exit 2
    "abbreviated-option": (
        ["locus", "maps", "--ma", "5", "--n", "2", "--d", "3"],
        2,
        EMPTY,
        "e14837b664345cea584dbd4cfc356c3db556db0d39f0f2d538193121c1638729",
    ),
    "leaf-help-last": (
        ["locus", "maps", "--n", "2", "--d", "3", "-h"],
        0,
        HELP[("locus", "maps")],
        EMPTY,
    ),
    "top-help-before-command": (["-h", "locus"], 0, HELP[()], EMPTY),
    "group-help-before-command": (["locus", "-h", "maps"], 0, HELP[("locus",)], EMPTY),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_cli_edge_case_matches_golden_digest(name, capsys, monkeypatch):
    argv, code, out_digest, err_digest = EDGE_CASES[name]
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_digest


def test_every_command_row_has_a_help_digest_and_its_own_handler():
    # a command added to the table cannot land without a pinned --help
    assert {path for path, _, _, _ in cli.COMMANDS} | {()} == set(HELP)
    handlers = [handler for _, _, _, handler in cli.COMMANDS if handler is not None]
    commands = [value for name, value in vars(cli).items() if name.startswith("_cmd_")]
    assert Counter(handlers) == Counter(commands)
