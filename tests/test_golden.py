"""Byte-level guards on the scan output, the exact catalog and the samplers.

The catalog and sampler digests were recorded before the groups were
declared as data (laws and coset classes), and the scan digests before the
reduction check moved from a gcd mod p onto the discriminant.  None of them
may move: the scan JSONL of a generic and a CM genus-1 curve and of a
genus-2 curve, the catalog CSV, the component-group metadata CSV, the
eigenangle arrays of every group at two seeds, and the CSV of the two side
experiments (Chebotarev shapes of an S3 cubic and an S4 quartic, and Birch
moments), recorded before the F_p polynomials became plain lists.  The
genus-2 scans to N = 1024 of a quintic and a sextic, which reach past the
prime where the scan leaves the F_{p^2} count for the Hasse-Witt matrix,
were recorded while every prime was still counted over F_{p^2}.  The
sextic 2x^6 - 2x^5 - x^4 + 3x^3 - x^2 - x + 3 to N = 1024, whose leading
coefficient is a square mod some primes and not mod others, was recorded
while its primes without a root mod p were still counted over F_{p^2}.
The quintics x^5 - x and x^5 - x^4 - 2x^3 - 2x^2 - 2x to N = 1024, the
first pinned scans whose Jacobian points leave c2 open (at p = 3 and 5,
and at p = 3 and 7), were recorded while those primes were still counted
over F_{p^2} by numpy.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from frobstat import cli
from frobstat.haar import get_entry, sample_classes

# stdout of `frobstat scan` with these arguments
SCAN_SHA256 = {
    "--f=1,1,0,1 --N 2000": "932e8ca886f6ce5a487e4eec37eafaa3fb2b55587e011152357e07d13c1ebe5a",
    "--f=1,0,0,1 --N 2000": "6a071f30127f1aa307db1cc8b21374a8419c265bab461daf2486494a873f65dc",
    "--f=1,-1,0,0,0,1 --N 300": "ab2a4c4cdac64660a907fe978c2ce931af146085a74144f121179c3877e9b958",
    "--f=1,-1,0,0,0,1 --N 1024": "925225d3405b1cb5ac06b3137cd39b1f0b8905703d9872d0fddc329dfdb3f257",
    "--f=2,3,-1,0,1,5,1 --N 1024": "6ff9bb97ed61aba14d102ea5678a2eb0266314c74c6049024b835b6a4228a5aa",
    "--f=3,-1,-1,3,-1,-2,2 --N 1024": "faec9fcd9040a7e4d2eb6622348c6dd7aca313087f05fea20a32e7168eab4eda",
    "--f=0,-1,0,0,0,1 --N 1024": "0c5ba93aa64be81b40d17ed2d78de74f6fa3ee289ee9aac18726cf0e80b76ea3",
    "--f=0,-2,-2,-2,-1,1 --N 1024": "4b8f807cb257d1fc269a9eb027706966d99b1a436195760456ece2e3f26bef51",
}
# stdout of the side experiments with these arguments
SIDE_SHA256 = {
    ("chebotarev", "--poly=-2,0,0,1", "--group", "(1 2);(1 2 3)", "--N", "10000"):
        "ca61c2da354c5f8c33c0c10053e3093330e1f1a13b656afa3404279d11beb6bc",
    ("chebotarev", "--poly=-1,-1,0,0,1", "--group", "(1 2);(1 2 3 4)", "--N", "10000"):
        "7b9f83ba8ba6755341c968d5de1032994b0bd5d828122b05513fd79f89902db7",
    ("birch", "--p", "5,7,11,13,101,211,307"):
        "93e0680e4ff452162ca0d983797ac5391dd237727cbd58c323049eb749e05a75",
}
CATALOG_SHA256 = "da077a2a45e93a4178bfea51cb30d43396774cfed9e2b3377589c645e59a7e4c"
METADATA_SHA256 = "2c9ee3a7442c9cdde993861d607a5312d85f74628db4e6f8462e93dd56314846"

# sample_classes(gid, 1000, seed): SHA-256 of the array bytes
SAMPLES_SHA256 = {
    ("U(1)", 0): "77a6e8089cdff5b9332de26c3bbc636bf7ec8379609d4991e3414549d62b337e",
    ("SU(2)", 0): "d7d3aa5621f204bf888228661f33ecc8ea56d133a5d38048d2f5d5df8bf006c8",
    ("N(U(1))", 0): "25a807c31a94e3d185bb64ad0eabb246e10b687b23a17ca609a9b4ce3feefeb1",
    ("U(1)_2", 0): "f8654af18543c55b0d9c239a954fef5deebdcad57c24b3bdaef744fac6af9cd1",
    ("SU(2)_2", 0): "2e9e96351e329a6d57a8483071f3354d3c2841c0c6bafee596e48cfb46f8377e",
    ("U(1)xU(1)", 0): "5e50a0fd2061fe09ebee416a6e533cf7f237714725711accfc3f8c746c0a512c",
    ("U(1)xSU(2)", 0): "741d8994f5f8174bc6f89abee04d58c0ae839ecf03b2924f3d972ee6ffcaea04",
    ("SU(2)xSU(2)", 0): "21a94e7234f0e90edcf3a16368c340dddd0d8a86280ea58a5d9eab289f48d25c",
    ("USp(4)", 0): "3fc2beedd97322a8adaf0c66076e9eb035aef1ba5be299568381a356f342e2a3",
    ("U(1)", 42): "b0ced6dbd4a107fcaa0a8e3b74c1595247b30503eb6251917421e2b9e11c5b5f",
    ("SU(2)", 42): "f57e60fd6cb17deda52f3be2d38b5211a3b19fc3c70be44fbd566ceda0cba0ef",
    ("N(U(1))", 42): "a0db76f7d6c7b34b4513ebb2499931a5076249c1e56f5b4200e199e3a1c7e665",
    ("U(1)_2", 42): "88b181d705cb2f263bf158f264c393c56fa9e306a754f3e5e7af198d1c22030c",
    ("SU(2)_2", 42): "9b1bb0dac9c9b630387c064218964d4381a1a2fe56c750174a62e917dda37dcc",
    ("U(1)xU(1)", 42): "68825dbc2f46c4af94c9f7009009d26946f82f68935484d36897c5075d97657f",
    ("U(1)xSU(2)", 42): "52abc4862c1a91705cb8d6d466d4a39e965e9093a21c2b862bbc798256cf778b",
    ("SU(2)xSU(2)", 42): "e31f7b624d65647773dc93a99f20a55d55fe254cad8ff68f35317358e6039c1e",
    ("USp(4)", 42): "2ee2ec095154e89489eb8abaee6611be584dfeec841a44dfd16c4d149b7816b5",
}


def _cli_sha256(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("args", sorted(SCAN_SHA256))
def test_scan_jsonl_bytes_frozen(args):
    assert _cli_sha256(["scan", *args.split()]) == SCAN_SHA256[args]


@pytest.mark.parametrize("argv", sorted(SIDE_SHA256))
def test_side_experiment_csv_bytes_frozen(argv):
    assert _cli_sha256(list(argv)) == SIDE_SHA256[argv]


def test_catalog_csv_bytes_frozen():
    assert _cli_sha256(["catalog"]) == CATALOG_SHA256
    assert _cli_sha256(["catalog", "--metadata"]) == METADATA_SHA256


@pytest.mark.parametrize("gid,seed", sorted(SAMPLES_SHA256))
def test_sampler_bytes_frozen(gid, seed):
    angles = sample_classes(gid, 1000, seed)
    assert angles.shape == (1000, get_entry(gid).genus)
    assert angles.dtype == np.float64
    assert hashlib.sha256(angles.tobytes()).hexdigest() == SAMPLES_SHA256[(gid, seed)]
