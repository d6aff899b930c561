"""SHA-256 digests of the CLI outputs of the verify-cli workload, pinned from
the seed code (every verify report in it passes with cases checked).

Keys are the argv without "--out FILE"; values are `canon.file_digest` of the
file written, which drops each `elapsed` field from JSON reports.
"""

CLI_DIGESTS = {
    "verify --suite alpha":
        "9c727571c683a8ab3906b2b9d90cbcc45d9ed6c7022f3849aee0e96e19165d8b",
    "verify --suite gamma3":
        "85c62027acae983e3455ff93905625f514594f6c95a9b0a71b4cf21502d5edb1",
    "verify --suite tau":
        "64538932809b2465e06f461405b23ab2307f0c1b028ffa56ccedeb29c6e39bc7",
    "verify --suite oracle":
        "c7b339a74c1e0e3a99d3d48078348bf79933e33ccd347b740222291dc29cb036",
    "verify --suite gammaS --max-cells 30":
        "f8143cc2469fa33b0cf1fb0a550ca9653be4ea311791a0f9d8e6dbb72196b8fd",
    "verify --suite oracle --format csv":
        "3d1454fdee1737f9ebf4a38031f1261a87d90ef67b60b5bb6c386e9db34ef352",
    "table --columns 5 --max-cells 35 --method recurrence --format json":
        "8be5c302c9a8f1f232bf0f4ddf244abbf811c3cce202f7f9687bca780bc1c0df",
    "tau --columns 4 --max-cells 40 --method recurrence":
        "7b620f305ea303bcb2093b3199db02d3b8657854e54e635925945cf825e75bc0",
    "ratio --columns 3 --max-cells 80 --decompose --format json":
        "ae6ff56bbb18b8eabbaee2b1b0d26cf6ca463533a2e1c164ae05c4765ef582cf",
}
