"""Report bytes pinned by digest: the sha256 of stdout for a fixed list
of fast invocations, covering every verb, every scene kind, generated
point sets and the text format.  A digest changes only together with a
deliberate change to a report, recorded in CHANGES.md."""

import hashlib
from pathlib import Path

import pytest

from steinertorelli.cli import emit, main
from steinertorelli.scenes import P1Series
from steinertorelli.torelli import torelli_check

SCENEDIR = Path(__file__).resolve().parent.parent / "scenefiles"
SCENES = {p.stem: str(p) for p in SCENEDIR.glob("*.json")}

# (argv with scene files by stem, exit code, sha256 of stdout)
CASES = [
    ("build twisted_cubic --B O(5) --prime 7", 0,
     "743d35af5d8778ad2690208600133b9fc9a0cfb591cd6fe71650be119ea9f828"),
    ("build diagonal_ci --B K+A --prime 5", 0,
     "50b437741bf8f15d76c857f3146096c00eba1ff61950927fb190a60755fbc074"),
    ("build six_general_points --prime 7", 0,
     "8446a245143186a383a431b8d06a0a0861acf84f58bf3efbe82f3ec52905fe77"),
    ("build scroll_member_a --prime 5", 0,
     "d1610090a8f074989c30e09482ad74429aebc327122687845c9308d4ec1e3701"),
    ("build conic_monomials --B O(3) --prime 5 --format text", 0,
     "e58f0c67a455699e1417e1066b25f91f2104de91ed97249675a91a446a61e76a"),
    ("valles twisted_cubic --B O(5) --prime 7", 0,
     "da14c077f9734f3a76c9d87917f73df7baa9a211c798462665fe810044fc6349"),
    ("valles fermat_quartic --B O(3) --prime 5 --format text", 0,
     "a4a4ec8cfe3a754c62f36b9cd72b84b3b8be7b69e819e74a318af16be1412260"),
    ("valles seven_on_twisted_cubic --prime 7", 0,
     "24e915cb3be04dd202588115eb72c1696f767e04a9fdb485fbd5dc168aff74e0"),
    ("koszul twisted_cubic --p 1 --q 1", 0,
     "80b9aea796990a7683ed4fc745fd28f5497186e7f8e81762a73e676f9631af7a"),
    ("koszul diagonal_ci --p 2 --q 1", 0,
     "e9ba49c95585271b0ee9514d618a5746ba8075eb8b963f1476a925727458c707"),
    ("koszul diagonal_ci --p 1 --q 1 --prime 7", 0,
     "2db9cf3a0dba2f4fa9dadfe3bcb1e5d26a9094ac90aef80560a8c5975b5b5447"),
    ("koszul conic_monomials --p 1 --q 1", 0,
     "834f8e54f889773cb7e3ec82a23883f3636192e53848593f7c14ef52048d1f76"),
    ("koszul scroll_member_a --p 1 --q 1", 0,
     "cfbe8148338b88d8d1efeb029a3931a597619a52b0fb4d313c612e27b937abfc"),
    ("koszul six_general_points --p 1 --q 2 --format text", 0,
     "fbc3829d843b7a7dbad5ff902d8036a1509a0a051797b63411c5cf3f088f7b75"),
    ("green twisted_cubic", 0,
     "57ed9ff482277d30470ab54547450f944f633c846c59af34a1b6f8c18abeeb9c"),
    ("green diagonal_ci --prime 11", 0,
     "dc01b4dd86a3a14fad1994f182e3fc1326de7e947aa6925a6290ffe8f857e6e3"),
    ("green seven_on_twisted_cubic", 0,
     "befc1b7b59da01d7f8d30b2fb1a6dccf5fa1b878e86f23613fb6e1a1a7d01e71"),
    ("green seven_general_f11 --prime 11", 0,
     "90711267b48ac9da26dc7939e972aebd5bd0e8bdf65401aa6be96880232798d1"),
    ("duality twisted_cubic --p 1 --q 1", 0,
     "07df0c90d652cf2a393e302c43617da858ef5580063061b0474fb5451be446fc"),
    ("duality diagonal_ci --p 1 --q 1 --prime 7", 0,
     "6940ff0c35665f4871e4a5cd94320d7c48e097cab73ba6e6f51b912ba4e648fe"),
    ("duality scroll_member_a --p 0 --q 1 --format text", 0,
     "d505f5f235663eabefa43922d66477b6ca8c56fbb839a7964e1fee1c99d06970"),
    ("torelli twisted_cubic --B O(5) --primes 5,7", 0,
     "05bbc6cf29fd9a5aa433e140fed5045017d0b11ba7f84915d27d74988ac37f8f"),
    ("torelli twisted_cubic --primes 5,7 --format text", 0,
     "51fd77ec2114657f033ac13346ec07a8feab06226faccb1020bce268abe2250b"),
    ("torelli conic_monomials --B O(4) --primes 5,7", 0,
     "ead67bc439101e5f277fcd1ff044a162841a57734f09e43c1b6c3efa10e3857c"),
    ("torelli diagonal_quartic_123 --B O(3) --primes 5", 0,
     "ace670abcc45142ff604a5ee0f27248800eea79a4d9dac2bc70595904022ef20"),
    ("torelli fermat_quartic --B O(3) --primes 5", 0,
     "4a4c3720a2ccffe42d95025a7a11a3708885ba825914474300197a1dd8bb82f8"),
    ("torelli diagonal_ci --B K+A --primes 5", 0,
     "7863dab2a7f44f44b1abaddbd597ad9c158404568845508489f76d7921a60371"),
    ("torelli scroll_member_a --primes 5", 0,
     "16bb150018f3a249a658f3761544d8e2b006f80206c4522c84208244f58b055e"),
    ("recover twisted_cubic --B O(5) --prime 7", 0,
     "d4543f69427397ec9aa5a9a7a6cb2f39aee36883cbd9dcd675068abe43a6e6c2"),
    ("recover scroll_member_b --prime 5 --format text", 0,
     "5f982f2c0ce3ac8345961c1aa1bad1dcc9d35517ee42f45647063e3bc479169d"),
    ("dk six_general_points --primes 7,11", 0,
     "26349a1733828c3d6556f339dc3e450de8b1d58a040d75ef7273593bbc6929ca"),
    ("dk seven_on_twisted_cubic --primes 5,7", 0,
     "871f3ea094ffdafbfbda6a8f5e57e3418ae61db042be2a87c3886f6efb9f6e73"),
    ("dk seven_general_f11 --primes 11,13,19", 0,
     "9389afad9135ebd5e56295fccca6673fadeb3485db5636a837675ee9e485f72b"),
    ("dk --N 6 --seed 3 --prime 13", 0,
     "5b7a449f777b3c6a04fae7b9f9e404ac34d79c3efb0e0d0ce039b01bdbecd213"),
    ("dk --N 7 --seed 0 --prime 11", 0,
     "651afdba58544b2cfd716d6c4525202b39efda3d49c7459b204c679fd67260db"),
    ("dk --N 7 --seed 0 --prime 11 --format text", 0,
     "2f56712372c77ea042a3f796efe2c52accbea5b2bd58d3e783c48e24f0371c81"),
    ("scroll-invariance scroll_member_a scroll_member_b", 0,
     "ab7e0d1d4b5315bfbc7a7db6ba1b0897963cc0f06b3cfee4d6536c6a8902b9e7"),
    ("scroll-invariance scroll_member_a scroll_member_b --N 2 --prime 7", 0,
     "ffc5f12d9ac1e10af3c678bf6ec77d71c7d41ce4d4daac1524d8016bf21c49bd"),
    ("torelli twisted_cubic --prime 0", 5,
     "fb8dcbc45212005e7a1782402a2e1f95310059d618aba5f6033689e122a70d31"),
]


@pytest.mark.parametrize("line,code,digest", CASES,
                         ids=[line for line, _, _ in CASES])
def test_report_bytes_are_pinned(capsysbinary, line, code, digest):
    argv = [SCENES.get(tok, tok) for tok in line.split()]
    assert main(argv) == code
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == digest


# the twisted cubic embedded by a basis of determinant 1, so the series
# is proper as a basis and stays whole at every prime; no scene file
# takes the proper-series branch of the P^1 scene
UNIMODULAR_CUBIC = [[1, 1, 0, -1], [2, 3, -2, -2], [-1, 0, -1, 3],
                    [0, -2, 5, 3]]


@pytest.mark.parametrize("b,digest", [
    (5, "3620e94f48964fc1b2913e117e2ca9d27d8bdc1fe39e35a7b3a86a341ad61ad1"),
    (4, "df055c45ca1b49cbe89fc6d4fa4483d22cf50bbd7368b0e94c93543a50a83c04"),
])
def test_proper_series_report_bytes_are_pinned(b, digest):
    scene = P1Series(3, UNIMODULAR_CUBIC, name="twisted_cubic_unimodular")
    report = torelli_check(scene, b, (5, 7)).to_json_dict()
    assert hashlib.sha256(emit(report, "json")).hexdigest() == digest
