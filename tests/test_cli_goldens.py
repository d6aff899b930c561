"""CLI outputs pinned by SHA-256 digest, so a refactor that changes any byte
of them fails here. Verification reports have `elapsed` masked first; the
exit status is hashed with the text.

The digests were taken from the code before totals became table row sums for
every width. To re-pin after a deliberate output change, print
`_digest(argv)` for each key of GOLDENS.
"""

import contextlib
import hashlib
import io
import re

import pytest

from sytcount.cli import run

GOLDENS = {
    "tau --columns 2 --max-cells 30 --method definition":
        "dfbc4097fef8d078b33b1fb7b486d313f17d3a5969def6e2329762763a3c025d",
    "tau --columns 2 --max-cells 30 --method recurrence":
        "dfbc4097fef8d078b33b1fb7b486d313f17d3a5969def6e2329762763a3c025d",
    "tau --columns 2 --max-cells 30 --method closed":
        "dfbc4097fef8d078b33b1fb7b486d313f17d3a5969def6e2329762763a3c025d",
    "tau --columns 3 --max-cells 30 --method definition":
        "e3a2e3aa00ec8ea0619c6b6426a29a9b6085e8b1cc045601fc22b311dfcd438e",
    "tau --columns 3 --max-cells 30 --method recurrence":
        "e3a2e3aa00ec8ea0619c6b6426a29a9b6085e8b1cc045601fc22b311dfcd438e",
    "tau --columns 3 --max-cells 30 --method closed":
        "e3a2e3aa00ec8ea0619c6b6426a29a9b6085e8b1cc045601fc22b311dfcd438e",
    "tau --columns 4 --max-cells 30 --method definition":
        "283e213603660f2d46a8e35b9acc7395205915014b5d5be1d183283a71a73212",
    "tau --columns 4 --max-cells 30 --method recurrence":
        "283e213603660f2d46a8e35b9acc7395205915014b5d5be1d183283a71a73212",
    "tau --columns 5 --max-cells 30 --method definition":
        "94a372a53ba0ff29ab3b8a4c6b8a799cb6723d12cd1e714a498cc5d7da950ca7",
    "tau --columns 5 --max-cells 30 --method recurrence":
        "94a372a53ba0ff29ab3b8a4c6b8a799cb6723d12cd1e714a498cc5d7da950ca7",
    "table --columns 2 --max-cells 20 --method definition --format csv":
        "fd0f152a64cd64a56d79cefb0912622367208a791125d1a24d3d77aeeeb22051",
    "table --columns 2 --max-cells 20 --method definition --format json":
        "33983b6817e30c5522bbd790bf08035fc5cf07d456159569e30835194f756af2",
    "table --columns 2 --max-cells 20 --method recurrence --format csv":
        "fd0f152a64cd64a56d79cefb0912622367208a791125d1a24d3d77aeeeb22051",
    "table --columns 2 --max-cells 20 --method recurrence --format json":
        "69cab4d117e17a5d48f8802c1821295aab789f387ed7d91574eaf288378354fa",
    "table --columns 3 --max-cells 20 --method definition --format csv":
        "e5bf3650ccabcf52bd97b8f1ca96c37680d92b62198912c9e7aa413fa9985834",
    "table --columns 3 --max-cells 20 --method definition --format json":
        "e226cfbdb068bcd540c1d1dc0e69a951bb37eb5f37a1bf44fd0624ee38548187",
    "table --columns 3 --max-cells 20 --method recurrence --format csv":
        "e5bf3650ccabcf52bd97b8f1ca96c37680d92b62198912c9e7aa413fa9985834",
    "table --columns 3 --max-cells 20 --method recurrence --format json":
        "0578dafa701b3e316e609b2964f2a2647008fccdf4e270d593341db63204effc",
    "table --columns 4 --max-cells 20 --method definition --format csv":
        "62e392c345b239757832cac0ff0f32c87473120d5236c5849a2a8939676abf15",
    "table --columns 4 --max-cells 20 --method definition --format json":
        "b6f7cf28e8794dcc0510460d99684619d6c7ed678cfaf0ee613c43f79bab081f",
    "table --columns 4 --max-cells 20 --method recurrence --format csv":
        "62e392c345b239757832cac0ff0f32c87473120d5236c5849a2a8939676abf15",
    "table --columns 4 --max-cells 20 --method recurrence --format json":
        "08739de1e96313aeeba7a1688cb85f44cea8cf6a8c964c2778b69f38a420553b",
    "table --columns 5 --max-cells 20 --method definition --format csv":
        "ebe31597e6f617ac09efa241eba54a9b1b9e9aa6137fe45330cb489db943f3e9",
    "table --columns 5 --max-cells 20 --method definition --format json":
        "461889e3c9b10d662681608a162dd1e8de130a3dc9a24f12a96d1a413ca6658d",
    "table --columns 5 --max-cells 20 --method recurrence --format csv":
        "ebe31597e6f617ac09efa241eba54a9b1b9e9aa6137fe45330cb489db943f3e9",
    "table --columns 5 --max-cells 20 --method recurrence --format json":
        "2987558164eb3ba46d756b1b95294eced18d915ef94a5709c80e0de4fffa80cb",
    "ratio --columns 3 --max-cells 40 --decompose --format csv":
        "0d829abafe880ecc9821d91dbdd4acd5a8c4638613e5785309d2e0edf216dbc8",
    "ratio --columns 3 --max-cells 40 --decompose --format json":
        "91ac96bba4600209292a2b041741fcbf2676d1544bd10ee2de88d697c2065b6d",
    "verify --suite alpha --max-cells 12":
        "1d692d4820bd37accdd45eb7a4a693665a476474167446caf873886033c0e981",
    "verify --suite gamma3 --max-cells 12":
        "d5a59e394c16077c4af1bc121a414508c0a6ce565857953eb305391eb879be42",
    "verify --suite gammaS --max-cells 12":
        "a9ed90d06803fd4ab82bbce629a00fa9c35c5a8b8342e8d09e4965c9baa1b1f2",
    "verify --suite tau --max-cells 12":
        "0f01e7e141af9d5d145baf68c6bb9c8a608ee0d0e4258ca51a260ca1cf112bc2",
    "verify --suite ratio --max-cells 12":
        "6a336a8f7a503696b6a9fb50f993bd383a3f7c828be35182cb1cd23eb1aa13a7",
    "verify --suite oracle --max-cells 12":
        "2e73998de6edee65df2a41a0d68f8d9c246faa3f1c80de6a7c9f64a4ec8cc305",
    # Default ranges, every skip record, checks with no cases, and both
    # branches of the decomposition-shrink check; taken from the code before
    # the suites became generators.
    "verify --suite all":
        "d98027a3d6018db335d6dacb617e055dbda00836adf31726296bcf95e3c08d0e",
    "verify --suite all --max-cells 0 --format csv":
        "ba4190b249a507cb5ce5937771140464a91f3e52510ac85c67a8716e18a09cba",
    "verify --suite tau --max-cells 2":
        "fa53eda52e2ed251dd0acba0775d250866578b7f1f5de085dea169e531ca35f7",
    "verify --suite tau --max-cells 4":
        "08b4ebb5b605aa47a02008a31ed274b6cc2bbb94019de64756b23667a3725f9a",
    "verify --suite ratio --max-cells 2":
        "3e19c116c40bae9609bd43c945d199a4481d6d18292a38e0e2b8abe4b077d9d4",
    "verify --suite ratio --max-cells 10":
        "493280469876599042c09d94bc8a801e4c6ecc8a0cec65540bb8ea9b9be14f74",
    # Totals as JSON, ratios without the decomposition, a decomposed table
    # whose rows are mostly blank, and a report CSV with quoted scopes; taken
    # from the code before one module rendered every output.
    "tau --columns 3 --max-cells 12 --format json":
        "e60aff8bfebb8dc7806e8443946b4c4474d745023261bd06e1313352f6ff5a11",
    "tau --columns 5 --max-cells 12 --method recurrence --format json":
        "e63d9f11812471f80a74155d013e6de847c8f3c7de01fb277ca06a7817f9c528",
    "ratio --columns 4 --max-cells 20":
        "89ad154b467bfc43e0f5d286b2e956adb4b9db3205813ebaecdf60f687ff2d96",
    "ratio --columns 5 --max-cells 20 --format json":
        "4ddaa8d1a6a136ea89931ad04a6993b1a6aea07f8e70c94876899b27cb24c822",
    "ratio --columns 3 --max-cells 4 --decompose":
        "2b0c5ecc6a22cf26dd2b6cf84d761d10687193f68d13cbf32655b9a106109ecc",
    "ratio --columns 3 --max-cells 4 --decompose --format json":
        "9a0f2023410a4472a96aa826e55a71731f0bf00ff9ddd0627a4223302b73fa0b",
    "verify --suite ratio --max-cells 12 --format csv":
        "8679df7e1e956d8736e12a54a1e9a7cc585596c84b7ac484f8eeb1a18dcf144d",
}


def _digest(argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run(argv.split())
    text = re.sub(r'"elapsed": [0-9.e+-]+', '"elapsed": X', out.getvalue())
    return hashlib.sha256(f"{status}\n{text}".encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", GOLDENS)
def test_cli_output_matches_its_golden_digest(argv):
    assert _digest(argv) == GOLDENS[argv]
