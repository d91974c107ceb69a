"""Byte goldens for every README command line, in every format it accepts,
for the O(p) enumerators at sizes where a fast path would show, for the
README periods sweep in its p = 1 mod 4 class, and for maximal sweep cells
of 17 to 20 bits.

The sha256 of stdout and the exit code were recorded from the released
behaviour (the large-p ones from the per-element Legendre, Tonelli-Shanks
and F_{p^2} object construction); refactors of the library or the CLI
must leave both unchanged.
"""

import hashlib

import pytest

from quadorbit.cli import main

GOLDENS = [
    ("orbit --p 23 --seed 1 --format text", 0, "26ba2b1ce3e667f48a9d396458d97e667465317b8841550bcd9c0fc78dc8a774"),
    ("orbit --p 23 --seed 1 --format csv", 0, "94ae97c96bfd8a0b25368312cf80abeab44051197c96b26043040115bb3c75ee"),
    ("orbit --p 23 --seed 1 --format json", 0, "a3cb30d02784156f4e02a8bd1a60214e7964fc51b6c4f82538cbcfe08e7d5bc8"),
    ("orbit --p 17 --seed 12 --predict --format text", 0, "3a71e36c9bb93bc56cc2a51ffef36b16187cd190418e9e77d28f819def9aba18"),
    ("orbit --p 17 --seed 12 --predict --format csv", 0, "9bd826bd02eb2f7f8e15d1685c709c8286fd26ac9641a258580c3b1a68d34188"),
    ("orbit --p 17 --seed 12 --predict --format json", 0, "8f7f5fa6540606c6da4f416f9a0581d3edaab2b79cb5df0e1037d66f8ebf4f2d"),
    ("ivset --p 23 --format csv", 0, "984fba7921990742d52f474620ef4a910819d108df8622d62c2dbfb62d28e1b2"),
    ("ivset --p 23 --format json", 0, "44aa999db2e82a89c6b37d0229a723b1a2a88d203897960ef42c9ca4f283f87c"),
    ("fibers --p 17 --format csv", 0, "dc432bd6b6b6856d97fa31a3b3468cadbca0e0e6c0bbdedaa1b28247624a288c"),
    ("fibers --p 17 --format json", 0, "d0bbbd2f555957da34332caad296dcfeabfe57463c96a52487e776271fcdb326"),
    ("census --p 23 --brute --format csv", 0, "ddfc8889fa12b3b1de026c7248c1af3aef412172542c626fede14934e98e44de"),
    ("census --p 23 --brute --format json", 0, "1f6bccea75dcbdb7b3de564385a2d344944eb41da67fc370f3ed697b108ec5a3"),
    ("safeprimes --limit 5000 --format text", 0, "5779f9740a1832280cfdadcc13787f290b2ab0fc4cb5e4258614bb910eb71ad5"),
    ("safeprimes --limit 5000 --format csv", 0, "750f7415901b547100da616234f7791fae9c3263164d5f72f87e49f551c0d9d2"),
    ("safeprimes --limit 5000 --format json", 0, "59ed6ad98f8e63bd20cee19d7c6aa4d6630c608bdc617bd71dcfff2b56fc0cf1"),
    ("safeprimes --limit 1000000 --analogous --format text", 0, "1a252402972f6057fa53cc172b52b9ffca698e18311facd0f3b06ecaaef79e17"),
    ("safeprimes --limit 1000000 --analogous --format csv", 0, "18531bf3532cb06e49776f0731ceacc37174b2eb750b0ac7381d5b3ae535a891"),
    ("safeprimes --limit 1000000 --analogous --format json", 0, "e283423a15bfdd30ec2cf80deb3d82fb640b11883c370c204000089654cae6c1"),
    ("lcp --p 6599 --bounds --format csv", 0, "e9a70a986a92a67b1f3f8f7530de8b1f66aa336e63487e6a36463d315bb15157"),
    ("lcp --p 6599 --bounds --format json", 0, "f84bf2c3b7927ec188e04dc5e615d13d2ab1addbb38bb1e2d09275978fc489a2"),
    ("sweep --kind maximal --n-min 3 --n-max 16 --format csv", 0, "5a9194eaaf54dd5d9c6e11343ad80ee7394fc1407ea5bef65bca045159d4303b"),
    ("sweep --kind maximal --n-min 3 --n-max 16 --format json", 0, "e5299a17345ab6cba187795e1b474c62167844b1e4245a1db2a311c92835231d"),
    ("sweep --kind periods --n-min 14 --n-max 18 --class 3mod4 --format csv", 0, "a896f9b5f53e06723470b4bc640d52f3a6e335a8578cfe3c35565b4099ae08fb"),
    ("sweep --kind periods --n-min 14 --n-max 18 --class 3mod4 --format json", 0, "dc277021c42885e448bb98188e00d8187264978448947f52da6c40f6905c0d2c"),
]

# Norm-one (p = 1 mod 4) and split fibers, an IV set and a brute census near
# the sizes the enumerate benchmark runs.
LARGE_P_GOLDENS = [
    ("fibers --p 100829 --format csv", 0, "5c17bc64670dc3c8deeeaf5b46d3d6841b080dfd5d6b64e9bd799c0f43847254"),
    ("fibers --p 100829 --format json", 0, "b17fdb2886acdb1e28cfa770d89a0c4e5c42d49401a8bc7fefaa479a2722e066"),
    ("fibers --p 100943 --format csv", 0, "6410b8dd3eb359d83970bc6a0b8126d88dfc2813799f38f0d1faf7b521f4f5b9"),
    ("fibers --p 100943 --format json", 0, "7c058bcb2b145a003f6b65652d0a224696d091dff4fa91f77b572cdf77799486"),
    ("ivset --p 503563", 0, "f2d1a2a7a319aaa6146bdfeb6a1aa397d3207d0479553a40d6c7b7da34973e5f"),
    ("census --p 500693 --brute", 0, "1a72e227e302026112d3b83dadffa13f60d8abcbb14f2fd9f8655a2a58e0b084"),
]

# Commands with no data rows: text output is one empty line, csv the
# metadata and header only.  Every safeprimes limit from 0 to 10 is one.
EMPTY_OUTPUT_GOLDENS = [
    ("safeprimes --limit 5 --format text", 0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("safeprimes --limit 5 --format csv", 0, "200c38696584aa4a64f81564d2c3d2854a152b3bc3802acbafc8fc89fd3ed0e3"),
    ("safeprimes --limit 0 --format csv", 0, "1771cbb5f20426e7eb7e050c30deb1a2c82d48062c144a65c592217db3ee87ce"),
    ("safeprimes --limit 0 --format json", 0, "11c82a303a607c106e06f9700a314580993436f01bee16e9878e3d0195bfa795"),
    ("safeprimes --limit 10 --analogous --format csv", 0, "7fd9faae53c9316ad9e298a9c4a3922ae4ea61e567bd75f4957ef9b27508f6e3"),
    ("safeprimes --limit 10 --format json", 0, "4fc07783e15bbfe65d3e4ca5e7959b2346a0a9ad1663eda2e16c6b17186cb04e"),
]

# JSON shapes the lines above leave out: one element, an empty stream, a
# census without --brute, lcp without --bounds and single fibers.
JSON_SHAPE_GOLDENS = [
    ("ivset --p 5 --format json", 0, "48b22bdec11425aefed50cd9b14f76e99654303b82123ca1d66a9d9b313bdc78"),
    ("safeprimes --limit 5 --format json", 0, "fd335ef7b8ffc975ce8c2b55e8a0260d707d135410496f54e05d9c28d116506d"),
    ("census --p 17 --format json", 0, "4095e382087914b19dfadcaa99bcf4118195d4dc8c749266c67f74d0a216ba42"),
    ("lcp --p 23 --seed 1 --format json", 0, "87f495e8335205e1feda297c3004abb1e4d33921eb51b977b979144e67761526"),
    ("fibers --p 5 --format json", 0, "1373f3616dd00b06f8b502d2478c8e9429925ced3f4e38567c836f450106aead"),
    ("fibers --p 7 --format json", 0, "34339dc3f4db28bc5d81e7ccdaeb97439382d5113650f07c3b149ef1f506ac67"),
]

# The README sweep's other residue class (its cycle moduli m = (p + 1) / 2),
# and maximal cells above 16 bits up to the benchmark's 20-bit cell.
SWEEP_CLASS_GOLDENS = [
    ("sweep --kind periods --n-min 14 --n-max 18 --class 1mod4 --format csv", 0, "dc48fd76914b705125c1f80402ba87107d30f61f04b747977a3e2d10455a3c47"),
    ("sweep --kind periods --n-min 14 --n-max 18 --class 1mod4 --format json", 0, "779e724f608c3781b2cb32ce123e485563949d3128c5012db83a0e073a598643"),
    ("sweep --kind maximal --n-min 17 --n-max 20 --format csv", 0, "7c4c737914274060d3d58389b5777d4983273e1deadb1f81446291e7f6f6e5de"),
]

ALL_GOLDENS = GOLDENS + LARGE_P_GOLDENS + EMPTY_OUTPUT_GOLDENS + JSON_SHAPE_GOLDENS + SWEEP_CLASS_GOLDENS


def _check_bytes(capsys, command, code, digest):
    assert main(command.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command,code,digest", GOLDENS, ids=[g[0] for g in GOLDENS])
def test_readme_command_bytes(capsys, command, code, digest):
    _check_bytes(capsys, command, code, digest)


@pytest.mark.parametrize("command,code,digest", LARGE_P_GOLDENS, ids=[g[0] for g in LARGE_P_GOLDENS])
def test_large_p_command_bytes(capsys, command, code, digest):
    _check_bytes(capsys, command, code, digest)


@pytest.mark.parametrize("command,code,digest", EMPTY_OUTPUT_GOLDENS, ids=[g[0] for g in EMPTY_OUTPUT_GOLDENS])
def test_empty_output_bytes(capsys, command, code, digest):
    _check_bytes(capsys, command, code, digest)


@pytest.mark.parametrize("command,code,digest", JSON_SHAPE_GOLDENS, ids=[g[0] for g in JSON_SHAPE_GOLDENS])
def test_json_shape_bytes(capsys, command, code, digest):
    _check_bytes(capsys, command, code, digest)


@pytest.mark.parametrize("command,code,digest", SWEEP_CLASS_GOLDENS, ids=[g[0] for g in SWEEP_CLASS_GOLDENS])
def test_sweep_class_bytes(capsys, command, code, digest):
    _check_bytes(capsys, command, code, digest)


@pytest.mark.parametrize("command,code,digest", ALL_GOLDENS, ids=[g[0] for g in ALL_GOLDENS])
def test_out_file_bytes(tmp_path, capsys, command, code, digest):
    target = tmp_path / "out.txt"
    assert main(command.split() + ["--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest
