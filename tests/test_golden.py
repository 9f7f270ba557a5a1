"""Golden gate: SHA-256 of the stdout of fixed CLI invocations.

The hashes were taken before the photon-count laws were merged into one
dispatch.  A change that claims to keep behaviour keeps every hash; a
deliberate change of one is re-pinned together with a note saying why.

The list is the README "Reproducing the standard curves" set, the default
`validate` run, and the branches those miss: the Poisson fallback of every
`populations` stage at beta = 0, `mismatch` at zero mismatch, the
experimental mismatch + detector composition, every sweep variable of
`detector` and `mismatch`, the empty dB cells of `ideal` and `bounds` at
N = 0 (CSV and JSON lines), and a `--metrics` subset of `mismatch`.

Re-pinned once: the experimental composition's hash moved when the detector
became one thinning matrix and a dark-count convolution.  The sums run in a
different order, so the lumped bin 1 - partial moved by one ulp of 1:
p_fa by 1.1e-16 (4.5e-12 relative), p_err by 5.6e-17 (4.7e-13 relative),
db_vs_sql_dss by 2.0e-12 (6.0e-13 relative); p_mi and every other column
kept their bytes.
"""

import contextlib
import hashlib
import io

import pytest

from iskennedy.cli import main

GOLDEN = (
    ("bounds --sweep N:0.01:3:300",
     "5d814696146874fc7df6f9935aeda27a96f5f9e9db7932e1dc28c56a699782de"),
    ("ideal --sweep N:0.01:3:300",
     "77dfdbe8f48ec17f87aae77a3292c3b3bca1bc88ce5e2cbd34176c2b6115c08a"),
    ("wigner --N 1.0 --points 101",
     "2eba8fabc60e8f87d9ec40e4d44d2ab7de823bd853e54bb4487072a549d28c22"),
    ("wigner --N 0.333333333 --beta 1.0 --points 101",
     "3e62d4452cf16748b11e0f85268ce43dbc1b3843840914d58b100496d04846f8"),
    ("wigner --N 3.0 --beta 0.111111111 --points 101",
     "f727ea1ed8ed8cec633f3ec12106c572e066618a32e17f57a6259dd4f4e8b9f3"),
    ("wigner --N 0 --beta 0 --points 101",
     "1e1ac916c086c8e492aa836bf6746fddfda7bd7b6b329c5b5a6def378f9cdddf"),
    ("wigner --N 8.0 --beta 0 --points 101",
     "eeb7771bc9e6824bf3e1f6d8adb3832b5f874a671a7faeba984bbe6fbcf2de40"),
    ("populations --N 1.0 --stage input --nmax 12",
     "6ed98cedcf95c188690de7f46363fa44ceea8e733a518cdb2976e972d1e59eec"),
    ("populations --N 1.0 --stage nulled --nmax 16",
     "493618b749638177788f2986a0c55e3047a3bce66cf9ff7397b723eec9edb7d9"),
    ("populations --N 1.0 --stage output --nmax 16",
     "caf589ac6ff62af54e997e55190ea6c1268e53509850d172ce02af05166c151c"),
    ("detector --sweep N:0.05:3:120 --eta 0.8 --nu 1e-9 --M 1",
     "4e3fa74fa2f68cd6d440bd922a511c9368b0322ab3f6bf2e7a01060e1c9a2f68"),
    ("detector --sweep N:0.05:3:120 --nu 1e-2 --M 2",
     "496cac62cb1fe02ace86e6d2c5095b16ac31c10afebcc56e9d981eaf37eb0a28"),
    ("thresholds --sweep N:0.05:3:120 --nu 1e-2 --M 10",
     "66863fcfb460436a1fe1ac4405cf1fca87b389196a8dc85af1cc606125fbf804"),
    ("detector --sweep N:0.05:3:120 --nu 1e-2 --M 10 --metrics db_vs_sql_dss",
     "b1f95490c7a0ad6a1d76e46ef4e974de106f3d5982f59cf4749bdf8c2b52fcc8"),
    ("mismatch --sweep N:0.1:3:120 --dr 0.02 --dtheta 0.0942477796 --M 1",
     "8c3206bdf14711560b58a09d420ecce3970744756eba6af4dde21eb4e6e6e518"),
    ("mismatch --sweep N:0.1:3:120 --dr 0.02 --dtheta 0.0942477796 --M 3",
     "1d5805857f100127b56a2f4f0dcf4c74ea03fdaaee60f973d29558fb0b9bc9b5"),
    ("populations --N 1.0 --dr 0.02 --dtheta 0.0942477796 --nmax 20",
     "9531f3cbfaf55278947d6be3575836147a21f00020bf1063d0ed27b21379de2d"),
    ("validate --trials 1000000 --seed 20260811",
     "65fc48d88cb3c4497fe7f928563ef94bdaea39534ec9d77faa6265bae794f829"),
    ("populations --N 1.0 --beta 0 --stage input --nmax 12",
     "0b77a63b908175b4b691dbbbbfb0cfe18eea15f7a293bc1379486210d17e599b"),
    ("populations --N 1.0 --beta 0 --stage nulled --nmax 12",
     "f63b7c1dbee8786c8721aa0935cbb0b394636a8350ecc3d323aa3f8d6101c0b8"),
    ("populations --N 1.0 --beta 0 --stage output --nmax 12",
     "f63b7c1dbee8786c8721aa0935cbb0b394636a8350ecc3d323aa3f8d6101c0b8"),
    ("mismatch --N 1.0 --M 3",
     "0175a80b791934ee9aade2bbfa1c34ec4a5f99a95e77c1b844d26b8f8c877328"),
    ("mismatch --N 1.5 --dr 0.02 --dtheta 0.0942477796 --M 3 --eta 0.9 --nu 1e-3"
     " --experimental-detector",
     "cde63fbe37bfb0ec92f1f503501e0320b3c5c3c6169187b24b79458cb613f3e4"),
    ("detector --sweep eta:0.5:1:6 --nu 1e-3 --M 3",
     "ee14db646ab005e6825d8364168954f3d4dcb839acbcb17646d38a697534c6b0"),
    ("detector --sweep nu:1e-4:1e-1:6 --M 2",
     "58f30ad36007f422a058019f78de4278bc33ee54cb9c639d7d08a2b3d074e2d4"),
    ("mismatch --sweep delta_r:0:0.05:6 --M 3",
     "400ed33bfd715eab522a21d9fdaf40444ed22ba537ce74d6197bd53c8d7f2bbd"),
    ("mismatch --sweep delta_theta:0:0.2:6 --dr 0.02 --M 1",
     "b5bc478aa4df6b87a7a32c8ed214b7c2318166b31eadfdcbdd684572a47057eb"),
    ("ideal --sweep N:0:1:3",
     "9d2e3b1d4427e266acd16d076b12ca796087ccec39fbbebaa23be8eb34c8e0af"),
    ("bounds --sweep N:0:1:3 --format jsonl",
     "2ea6f5041ff664e80267dbb86c9f5a355144f3087051e613d91d18ef07381411"),
    ("mismatch --N 1 --dr 0.02 --M 3 --metrics accept_set,p_err --format jsonl",
     "2e7a8765bf87fff6b5d7ea1df0a5135ebe3c0e8d5b767840b1c45bac7fee8da0"),
)


@pytest.mark.parametrize("invocation, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_digest(invocation, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(invocation.split())
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
