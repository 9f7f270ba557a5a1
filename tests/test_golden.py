"""Golden gate: SHA-256 of the stdout of fixed CLI invocations.

The hashes were taken before the photon-count laws were merged into one
dispatch.  A change that claims to keep behaviour keeps every hash; a
deliberate change of one is re-pinned together with a note saying why.

The list is the README "Reproducing the standard curves" set, the default
`validate` run, and the branches those miss: the Poisson fallback of every
`populations` stage at beta = 0, `mismatch` at zero mismatch, the
experimental mismatch + detector composition, every sweep variable of
`detector` and `mismatch`, the empty dB cells of `ideal` and `bounds` at
N = 0 (CSV and JSON lines), a `--metrics` subset of `mismatch`, and the
Wigner and `populations` tables in JSON lines and under --metrics and
custom grid bounds.

Re-pinned once: the experimental composition's hash moved when the detector
became one thinning matrix and a dark-count convolution.  The sums run in a
different order, so the lumped bin 1 - partial moved by one ulp of 1:
p_fa by 1.1e-16 (4.5e-12 relative), p_err by 5.6e-17 (4.7e-13 relative),
db_vs_sql_dss by 2.0e-12 (6.0e-13 relative); p_mi and every other column
kept their bytes.

Re-pinned a second time, 19 hashes, when scipy left the runtime: erfc and
log-gamma became math.erfc and math.lgamma, and the Poisson and
squeezed-vacuum tails became finite sums.  Every changed cell was diffed
against the parent's stdout; the largest relative deviation per column kind:

    bounds --sweep N:0.01:3:300          probability 2.0e-15, dB 2.8e-13
    ideal --sweep N:0.01:3:300           probability 2.0e-15, dB 3.2e-14
    populations --stage input            probability 1.7e-15
    populations --stage nulled           probability 5.3e-15
    populations --dr 0.02 --dtheta ...   probability 7.2e-15
    detector --eta 0.8 --nu 1e-9 --M 1   probability 3.0e-15, dB 2.2e-14
    detector --nu 1e-2 --M 2             probability 3.2e-15, dB 3.5e-13
    thresholds --nu 1e-2 --M 10          probability 2.5e-15
    detector --M 10 --metrics db_...     dB 1.1e-13
    mismatch --M 1                       dB 5.0e-14
    mismatch --M 3                       probability 7.2e-15, dB 1.7e-13
    mismatch --experimental-detector     probability 3.9e-16, dB 2.6e-16
    detector --sweep eta:0.5:1:6         probability 6.5e-16, dB 6.6e-14
    detector --sweep nu:1e-4:1e-1:6      probability 1.1e-15, dB 1.5e-15
    mismatch --sweep delta_r:0:0.05:6    dB 3.1e-16
    mismatch --sweep delta_theta:...     dB 8.2e-16
    ideal --sweep N:0:1:3                probability 1.9e-16
    bounds --sweep N:0:1:3 --format jsonl  probability 1.9e-16, dB 1.0e-15
    validate                             probability 1.4e-15, z 2.0e-14

The largest dB deviations sit where the ratio is near 0 dB.  Against mpmath
at 40 digits the new values are closer: erfc on the golden arguments was
within 15.7 ulp (scipy) and is within 2.1 ulp (math.erfc); the Poisson
tails of the detector tables were within 3.2e-15 relative and are within
3.9e-16.  The 11 other hashes kept their bytes.
"""

import contextlib
import hashlib
import io

import pytest

from iskennedy.cli import main

GOLDEN = (
    ("bounds --sweep N:0.01:3:300",
     "e5b4ea675ed0c3b5c7757768877b762f1ef866b4f088bdb4350f245a683224a3"),
    ("ideal --sweep N:0.01:3:300",
     "3467d8a702208d0e76075c87d02ad279a0392af3da3df6e36fd2e88a296d7ef4"),
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
     "7d15fdc2d2f7dd8a4ba097367aec85d7b8c4a558213f360baae3bd48856df532"),
    ("populations --N 1.0 --stage nulled --nmax 16",
     "f8b55bf6b7773e186476edb7b4eba3ffdf8828f8d6f5dea28434dc8bc849b4b9"),
    ("populations --N 1.0 --stage output --nmax 16",
     "caf589ac6ff62af54e997e55190ea6c1268e53509850d172ce02af05166c151c"),
    ("detector --sweep N:0.05:3:120 --eta 0.8 --nu 1e-9 --M 1",
     "20bc8bf57e97e33b7fe72005997a61114788754ddff54c1938a94921f2554523"),
    ("detector --sweep N:0.05:3:120 --nu 1e-2 --M 2",
     "03b8e098d73a57ec2727c2953af52ff8c1b3d6fad9e6aa2b0f83563e074c869f"),
    ("thresholds --sweep N:0.05:3:120 --nu 1e-2 --M 10",
     "28b3943b95cf2c98ef29a2991122b0758a5ea59bd923a9c7a9f2e168670c3bc8"),
    ("detector --sweep N:0.05:3:120 --nu 1e-2 --M 10 --metrics db_vs_sql_dss",
     "66997c5f8ca7267bcb59e29f5d3a3a1e033943b45e18cc83fce531b472e21ac8"),
    ("mismatch --sweep N:0.1:3:120 --dr 0.02 --dtheta 0.0942477796 --M 1",
     "57c79456efe72fd2432192b6acb577f12b2ba2b24b2c1fe52fce47d9070b57b9"),
    ("mismatch --sweep N:0.1:3:120 --dr 0.02 --dtheta 0.0942477796 --M 3",
     "83b7584f5d9dc85271c60cb49ae9c7000abf130d63d7935c1cd97af658c9deac"),
    ("populations --N 1.0 --dr 0.02 --dtheta 0.0942477796 --nmax 20",
     "1cb458926ef4de98f811fcd030e3f7d1b888910121a14e1a69eebbd7600993c5"),
    ("validate --trials 1000000 --seed 20260811",
     "0ce22844f41bacc5703ed271cf1d462a21fa2b6d4003112bc49c214b1d94b40d"),
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
     "0754912ecba75d2e56618f917036afbfddfd75698ceaa1d6c51c4d27980b41dd"),
    ("detector --sweep eta:0.5:1:6 --nu 1e-3 --M 3",
     "42529680f4a7c410c18a347e5185a5cd24f6532e5ebb90e084ab8bd7f09ba40e"),
    ("detector --sweep nu:1e-4:1e-1:6 --M 2",
     "9ad88711ac00c750b542b13937742784c95685faa952c1cade0b66a457fac3c6"),
    ("mismatch --sweep delta_r:0:0.05:6 --M 3",
     "95b0543a74cb762b98c5195d79c1c41c20e89e8ffaaf1db5d5816f8cc9259a97"),
    ("mismatch --sweep delta_theta:0:0.2:6 --dr 0.02 --M 1",
     "45b5f16fc5a421376665b83d7d0f0634447e0117d80f8ab08cb2fba35ecabd00"),
    ("ideal --sweep N:0:1:3",
     "d2d91b9939dc3b51b9e5bf60f55a581ad2617fa23f12bf974d389fc169be4686"),
    ("bounds --sweep N:0:1:3 --format jsonl",
     "52256c5f208895750eeb21b90b8114cb4816bbec89b121a8c42ed14a3a56b80a"),
    ("mismatch --N 1 --dr 0.02 --M 3 --metrics accept_set,p_err --format jsonl",
     "2e7a8765bf87fff6b5d7ea1df0a5135ebe3c0e8d5b767840b1c45bac7fee8da0"),
    ("wigner --N 1.0 --points 7 --format jsonl",
     "b894481b81b204c9fb6208058fe00a2fc2d610eee61bd77419497a7e2022011f"),
    ("wigner --N 3.0 --beta 0.111111111 --points 9 --xmin -1 --xmax 2.5 --metrics w_symbol1",
     "44ce650fce9c6fba2e22e373911ed91551e6ee8d1d726f9b7ea42688c756e85e"),
    ("populations --N 1.0 --format jsonl --nmax 6",
     "3d6d67f93503b7dc7684ddec069e8ef011dfef888659bf2f5d4dede083fecb62"),
)


@pytest.mark.parametrize("invocation, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_digest(invocation, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(invocation.split())
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
