"""The classification of tangent sheaves with a section of degree 1 (t_F = 1)
on the maximal-order forms of every row of the table, at d = 3 and 4, and on
forms pulled back from P^2, whose sheaf splits with the section d/dx3.

On the maximal-order forms the curve on which the section s vanishes, whose
degree and genus give the Chern triple of T_F, is also tested, not proven, to
have the Hilbert polynomial of I_Sing(s) : I_Sing(omega)^infinity, and every
number of the classification is tested to be invariant under a change of
coordinates."""

import hashlib
import json
import os
import sys
from functools import reduce

import pytest

from p3dist import cli, groebner
from p3dist.distribution import _section_chern, classify, line_family_invariants
from p3dist.exterior import ExtForm
from p3dist.foliation import classify_degree1, sing_scheme_v
from p3dist.groebner import Ideal, intersect, saturate, saturate_single
from p3dist.grammar import format_poly
from p3dist.hilbert import hilbert
from p3dist.poly import Poly, add_row_product, integer_rows, monomials_of_degree, row_poly

from conftest import make_rng
from maxorder import ROWS, linear_field, oneform, pullback
from test_groebner import _saturate_oracle

# the benchmark's seeded unimodular matrices, read from perfbench/inputs.py
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
from inputs import unimodular_pair  # noqa: E402


@pytest.mark.parametrize("d", (3, 4))
@pytest.mark.parametrize("row", sorted(ROWS))
def test_maxorder_classification(row, d):
    _, _, klass, family, chern, case = ROWS[row]
    omega = oneform(row, d, seed=2)
    report = classify(omega)
    assert (report.tF, report.h0_at_tF) == (1, 1)
    assert report.chern.as_tuple() == chern(d)
    assert (report.stability.klass, report.stability.family) == (klass, family)
    if family == 1:
        assert report.chern == line_family_invariants(d, 1)
    # the section is v up to scale and radial multiples, so it falls in v's case
    assert classify_degree1(report.minimal_section).degree1_case == case
    assert classify_degree1(linear_field(row)).degree1_case == case
    # the curve Z of the section, read from the printed triple, is the curve
    # I_Sing(s) : I_Sing(omega)^inf, the intersection of the saturations by
    # each generator of I_Sing(omega): HP_Z(n) = degZ*n + 1 - pa, 0 on no curve
    degz = report.chern.c2
    pa = (report.chern.c3 - _section_chern(2 - d, 1, degz, 0).c3) // 2
    assert _section_chern(2 - d, 1, degz, pa) == report.chern
    sing_s = sing_scheme_v(report.minimal_section)
    residual = reduce(intersect, (saturate_single(sing_s, g)
                                  for g in report.sing.sat_ideal.gens))
    assert [hilbert(residual).hp_value(n) for n in range(4)] == [
        degz * n + 1 - pa for n in range(4)]
    if d == 3:
        I = Ideal(omega.one_form_coeffs())
        assert saturate(I) == _saturate_oracle(I)


def substitute(polys, P):
    """Integer multiples, scaled together, of the polynomials f(P y):
    x_i = sum_j P_ij y_j, each monomial expanded once, as a packed row."""
    units = monomials_of_degree(1)
    lin = [{groebner._pack(m): c for m, c in zip(units, row) if c} for row in P]
    expanded = {(0, 0, 0, 0): {0: 1}}

    def expand(m):
        if m not in expanded:
            i = next(i for i, e in enumerate(m) if e)
            expanded[m] = {}
            add_row_product(expanded[m], expand(m[:i] + (m[i] - 1,) + m[i + 1:]), lin[i])
        return expanded[m]

    out = []
    for row in integer_rows([p.terms for p in polys])[1]:
        f = {}
        for m, c in row.items():
            add_row_product(f, expand(m), {0: c})
        out.append(row_poly(f))
    return out


def report_numbers(report):
    """Every number of a classification that a change of coordinates keeps."""
    return (report.degree, report.integrable, report.regular, report.chern,
            report.sing[:3], report.tF, report.h0_at_tF, report.stability,
            report.split_type)


SUPERDIAGONAL = [[int(j in (i, i + 1)) for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("d", (3, 4))
@pytest.mark.parametrize("row", sorted(ROWS))
def test_invariant_under_a_change_of_coordinates(monkeypatch, row, d):
    # x = P y with P in SL4(Z), which takes omega = sum A_i dx_i to
    # sum_j A*_j dy_j, A*_j(y) = sum_i P_ij A_i(P y), and its coefficient
    # ideal I to I o P. Two seeded P of 8 steps, and P = 1 + superdiagonal,
    # under which x3 fails as the first linear form on the rows with lines,
    # and on skew-lines the saturation rejects l_1 and accepts l_2
    rng = make_rng(151)
    omega = oneform(row, d, seed=1)
    report = classify(omega)
    seeded = []
    signature_run = groebner._signature_terms

    def counting(done, f):
        seeded.append(True)
        return signature_run(done, f)

    for P in [unimodular_pair(rng, 8)[0] for _ in range(2)] + [SUPERDIAGONAL]:
        coeffs = substitute(omega.one_form_coeffs(), P)
        moved = ExtForm.one_form(*(sum((P[i][j] * coeffs[i] for i in range(4)), Poly.zero())
                                   for j in range(4)))
        assert report_numbers(classify(moved)) == report_numbers(report), P
        seeded.clear()
        monkeypatch.setattr(groebner, "_signature_terms", counting)
        sat = saturate(Ideal(tuple(coeffs)))
        monkeypatch.setattr(groebner, "_signature_terms", signature_run)
        assert sat == Ideal(tuple(substitute(report.sing.sat_ideal.gens, P))), P
        if (row, P) == ("skew-lines", SUPERDIAGONAL):
            assert seeded.count(True) == 2


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_pullback_from_p2(d):
    report = classify(pullback(d, seed=2))
    assert (report.degree, report.tF) == (d, 0)
    zero, one = Poly.zero(), Poly.constant(1)
    assert tuple(report.minimal_section.components) == (zero, zero, zero, one)
    assert (report.stability.klass, report.split_type) == ("split", (1, 1 - d))
    assert report.chern.as_tuple() == (2 - d, 1 - d, 0)


# the sha256 of each report that `tests/bench_maxorder.py --seed 1 --dmax 5`
# prints, by row and d, and of each find-subfoliation document
PAPER_DEGREE_DIGESTS = {
    ("distinct", 3): "0e0bb6a800134adaa69d2e3ba3b7d339289db3c37fedc26449a25b1e029b5aed",
    ("distinct", 4): "df1e2e13999458236c87f45f85efccdffc3d133b4550c973dfb91a879d783bed",
    ("distinct", 5): "76c9853eefedd4e2559c871ce37f1f79be77cc9a020699af7bb5427d9f6359a7",
    ("double-line", 3): "9ae89bc0b1c37232f8277e8509a38777d010c248b90d9e5d287f63cf1d38c6b4",
    ("double-line", 4): "65c00294708bf32060089f13e9a0216d513dc52eaf05606fd5852b51835cf7da",
    ("double-line", 5): "653521c9ce63acede8e6b5a16c9d3a49dd7ad699cf72dfed181517bee7413fc1",
    ("jordan2", 3): "cc317d66261df0c0fd34b9a62670f4870597166f7abb575ec0db94e92e67766b",
    ("jordan2", 4): "c10ac3ebebece6d271c31e9bf746d829062dfe262edb0cf5221a290b53e2c17e",
    ("jordan2", 5): "d0611736f4cc1eaf20401006ad1717286d1262693cfbf7ce78d1928cb0ecaddc",
    ("jordan2-line", 3): "d1bc96093a49b569a4913e1f99dff3dabd30c8d2243fb8388a25343a58e2f148",
    ("jordan2-line", 4): "a3f543f3d2cd16ce2e710f33e5dc6138e85c740581d4addf693e596751785e07",
    ("jordan2-line", 5): "cae5aa76d451b51e7a0a3c3a3f08b229f65681a38094b342d90eed2a8b76a19f",
    ("jordan2-same", 3): "6aeed86fc5be67b5e538e1c03c00a78ab011677a3a594963a4e5c0ff50bc7659",
    ("jordan2-same", 4): "9ce04a0f031e35c5f0666e3f6d30e560722fe858fc5ed58d48d5e2895ec3f329",
    ("jordan2-same", 5): "fdaaba85b5769bcb0728447a6712db5fb00ea6ee008c0fb9bb3d966f743d0007",
    ("jordan2x2", 3): "4516e8dd0301f15607dac7c8ab9dbd6180aa87277e1c486f3f51e9e7ec982946",
    ("jordan2x2", 4): "a62240236ff6dbb411073d87b1ee479032ddeb21b60999382c4098560349c8b4",
    ("jordan2x2", 5): "5b4d244659ebfc53ea39472be2000fb35c4aac39ea6920dd64b233775505e28e",
    ("jordan3", 3): "be4ff4567390f7881f5620e255e66e57c1a9654354e37f7d6438983edb98f265",
    ("jordan3", 4): "4e279e28acf7fc612bc64e7f28389ff7bf2f30ac3bd6b42c3a9f5ab8f9b7d69a",
    ("jordan3", 5): "07fccddffe34a2647fa0fc2a9dc20b1ec4dd6006ca293b56fe241868d2524042",
    ("jordan3-same", 3): "80d3e91789f8935edf0090e5fc751c9cad510ebf9491e77e54d3adb1d7039a0f",
    ("jordan3-same", 4): "385f59c973368dc39b534078c1d77421a3c28ed486c445bed9b838b2e5b6392a",
    ("jordan3-same", 5): "dc7d3c23a2b61ee0f1ca1870c62bfd963de1c0bb5bb7aaa434c6647f8e7dc559",
    ("jordan4", 3): "95fb4661404d1688b3317e57412b0467f2ec014c84d0b7cf3fcfa421fa92e3e3",
    ("jordan4", 4): "034627d20e879f8d34ed9f5ee41a4bae6ecf3c93305a1706e87de0d30f5f70c5",
    ("jordan4", 5): "31cba8b8f26a4596208fa265834410d0c23c87956ebc204e016dc2e60ef5b305",
    ("line", 3): "166afa74944b480d5d9eb718920fa140037feb7bf4d42bf8d401bae115f5db67",
    ("line", 4): "69e52d709fbc785ea62acb1ec53349bab920454505e2832e183cf03d1fdd0634",
    ("line", 5): "68639973f5686bcf58b5e66b91b5c1e6ab2e561ae5712bae7db3260977e9cb4e",
    ("line-in-sing", 3): "fffa066a831c3c54f2981924569e0a39de0fd3b8e7dd9ac32cfad08ee09b5660",
    ("line-in-sing", 4): "bdf628bf2a787899cf2522f9fb6a833675f8110be10e8d3805c26ed8efbac4ab",
    ("line-in-sing", 5): "db55115e8b99a36fcb75d4ae7c4adde986f7112f0b990b8a95984f43bd7f771f",
    ("skew-line-in-sing", 3): "ad9a5acfb8b4d878de22f8b5cd0bbaabdae9d8f3834beda80675ed54d2925d8e",
    ("skew-line-in-sing", 4): "be6f5e26c341575c779b3d0b0ffb7b2c05bf219f0bd7540a77a1fc13b8f22cb3",
    ("skew-line-in-sing", 5): "926ff6f95e0a477271e999941925afcc875573ca66bab03e3cc2ac35ebb74204",
    ("skew-lines", 3): "2850aa3208b8311e5e557079d806b40042b1cad3a5eec4bb0d4b997727fc1e8e",
    ("skew-lines", 4): "3147a6a9d3bb65826fa37e3e837a053037b9f7d120629d12b00d0da6a7e5c679",
    ("skew-lines", 5): "76492785e7134a0c2acbc01511084b68192e018485552faf81ee656cda4665d7",
}
SUBFOLIATION_DIGESTS = {
    ("distinct", 3): "123e2aa68102f1ec2fe5e50acd21d5b56b99afb705d5d6160a89ae1c8308d1b8",
    ("distinct", 4): "a3e0c1afece7227bade16747b02374d7785151277a0b81bd771d0c154d12a202",
    ("distinct", 5): "4632e66cedb8222bca1612c101e0bd70b8271f058b3ae617e09821443d87b4d2",
    ("double-line", 3): "a08c0253b5f1247cd8a49208a669fba619a1a59edfb7265bf0b16c73b53e1bc1",
    ("double-line", 4): "ae5746c12301dd15a79676a2ef559f6bc6afff677d07e892b528e69b450c928f",
    ("double-line", 5): "94a02d3011971fdfe827330678443e74c320811027f83c658c28dc300e5acfff",
    ("jordan2", 3): "b0811e70655c41e10b6a23149917690e709634c8af3795cbf42a8eeeefab51b8",
    ("jordan2", 4): "4bd0d1cd6be0135f61e932bd0ddf20ac296ce80599f95ef4e04f3679d3dd01fa",
    ("jordan2", 5): "7cde412218bc1f54556856b862b7759a672e8fc4de29929b3374054e8b8f486c",
    ("jordan2-line", 3): "881f0fc5f4193c349f1c118050241e31d8f736c33b7df2ea05e799a1d307f5f8",
    ("jordan2-line", 4): "9eb14ed00a52b33ba93a4a1812383f7ff38b1e8995ee3ae94db406b64a9d44cb",
    ("jordan2-line", 5): "f06cf2c735658b9d2e9d860c546d3cc4ff70b245c135570de16150da26429b34",
    ("jordan2-same", 3): "7d251a9e59dc95398c1d04c79d56ca7eac0bd1068cde52ec0a6ef6e9961588c5",
    ("jordan2-same", 4): "333f4b81b5cbf7ec6a26f67550dff818410df89fce435e40906ebeab78069c2d",
    ("jordan2-same", 5): "4555a3935d0569008131be5ddb712dd849b8c59f646a76b37bbe5980dd7483fe",
    ("jordan2x2", 3): "abb354df103ad3ebeec8b06d9b4f8a7c00d4ed1f3ec6e1c01a50990a4064ab23",
    ("jordan2x2", 4): "d2ac2fe510e7b126f8f0fdf124637e45658b5602427505caa847ac4f2f4b65d6",
    ("jordan2x2", 5): "e32c75ac1d876140720eb4f73310f9e2fb00b1d03e2bfa1cf35a98193caa2d06",
    ("jordan3", 3): "813e39b364a8baf4c437c9ac5098cc9dc4355dfee10804c6a87ab9017e2758ac",
    ("jordan3", 4): "bffe5dba5a2b881a7f02bf7e717e33dbcaac7316f9de7b2d361d4ba3d1c76b0f",
    ("jordan3", 5): "e6ccf45275b6e23f7b076f4914cf388557acbb1a2fe8c7d625938914cda8ad32",
    ("jordan3-same", 3): "827af05a640dbfdbe90fda1e8c14864fe231a2b39de284eaed736532e1800cd4",
    ("jordan3-same", 4): "9dd3a006705fdbcb736be094ff9668d7bbd5a344d924f1d2ddb39701e941fbcb",
    ("jordan3-same", 5): "b19eb3e27f10102952083df5c8b237d59163c298bbd41bb5bc635c6c76db53da",
    ("jordan4", 3): "8e1e4056cafdb944902347608bf3908c8d7513191d4e8ce456e3c87c1e5c0968",
    ("jordan4", 4): "b5e3480552cb1babd41d9bb407ea9849ca6d5e173a4d720bf2a6ecf877169b24",
    ("jordan4", 5): "0b6071fc4f9941fec6f576a83c4a32156047fff4a8fcbfcc85541d80e83ca116",
    ("line", 3): "0b41c5e9f76c5aff89cac8492db249b864df22ceacf214f6721f6e2ab646aa40",
    ("line", 4): "0347dedc83556cb71b49dd289285e99127224ff339d60dfcc8736e1d671cd1ad",
    ("line", 5): "b2456bbf4a6a4f4fdf4643a727dbbafb924f352044f25eb74e9dbc56cd42c802",
    ("line-in-sing", 3): "0b41c5e9f76c5aff89cac8492db249b864df22ceacf214f6721f6e2ab646aa40",
    ("line-in-sing", 4): "0347dedc83556cb71b49dd289285e99127224ff339d60dfcc8736e1d671cd1ad",
    ("line-in-sing", 5): "b2456bbf4a6a4f4fdf4643a727dbbafb924f352044f25eb74e9dbc56cd42c802",
    ("skew-line-in-sing", 3): "a3f40f485b6303d9d4941a435e5529981564656f36876c4687f456ffc62bd2b6",
    ("skew-line-in-sing", 4): "7c0421eff5f390bcf4c63a6f3c46bbb313f30174d0078767d36d0c8f621d1278",
    ("skew-line-in-sing", 5): "50060889a23b09da7db3adf0e7ac6b26372ae86b1384e0b86e3daafc31ef304f",
    ("skew-lines", 3): "a3f40f485b6303d9d4941a435e5529981564656f36876c4687f456ffc62bd2b6",
    ("skew-lines", 4): "7c0421eff5f390bcf4c63a6f3c46bbb313f30174d0078767d36d0c8f621d1278",
    ("skew-lines", 5): "50060889a23b09da7db3adf0e7ac6b26372ae86b1384e0b86e3daafc31ef304f",
}


@pytest.mark.parametrize("row, d", sorted(PAPER_DEGREE_DIGESTS))
def test_paper_degree_reports_pinned(row, d):
    # the form goes through its document, as in the benchmark
    coeffs = [format_poly(p) for p in oneform(row, d, seed=1).one_form_coeffs()]
    omega = cli.parse_input(json.dumps({"kind": "oneform", "coeffs": coeffs}))
    doc = json.dumps(cli.dist_report_doc(classify(omega)), sort_keys=True, indent=2,
                     ensure_ascii=False)
    assert hashlib.sha256(doc.encode()).hexdigest() == PAPER_DEGREE_DIGESTS[row, d]


@pytest.mark.parametrize("row, d", sorted(SUBFOLIATION_DIGESTS))
def test_paper_degree_subfoliation_pinned(row, d):
    coeffs = [format_poly(p) for p in oneform(row, d, seed=1).one_form_coeffs()]
    omega = cli.parse_input(json.dumps({"kind": "oneform", "coeffs": coeffs}))
    doc = json.dumps(cli._subfoliation_doc(omega), sort_keys=True, indent=2,
                     ensure_ascii=False)
    assert hashlib.sha256(doc.encode()).hexdigest() == SUBFOLIATION_DIGESTS[row, d]
