"""Byte-identity of CLI outputs against recorded digests.

Small-M runs of solve, vertices (the default span and --full),
construct, both simulate forms and sweep, on paper_iv and (solve,
construct, both simulate forms) on a piecewise channel with a
zero-density gap; every output file except the JSON ones (the config
and manifest.json, which carries a timestamp) is hashed.  Any change in
the bits of an LP row, a residual, a kernel or a report shows up here;
record new digests only for a deliberate change of output.
"""

from __future__ import annotations

import hashlib
import json

from linksched.cli import main

# paper_iv's traffic over a 3-piece channel whose middle piece has no mass
PIECEWISE = {
    "arrival": {"alphas": [0.4, 0.3, 0.3]},
    "channel": {"kind": "piecewise", "h_min": 0.5, "h_max": 10.0,
                "table": [[2.0, 0.3], [3.0, 0.0], [10.0, 0.55 / 7]]},
    "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"}
PW = ["--config", "{root}/piecewise.json"]

# (output subdirectory, argv); "{root}" is replaced by the run root
RUNS = (
    ("solve", ["solve", "--dth", "3", "--bins", "4"]),
    ("vertices", ["vertices", "--bins", "4", "--full"]),
    ("vertices_span", ["vertices", "--bins", "2"]),
    ("construct", ["construct", "--dth", "3", "--bins", "4", "--M", "50"]),
    # 7 cells over 4 bins: cell edges miss the bin edges, so a cell
    # straddles two bins and holds two grid pieces
    ("construct_m7", ["construct", "--dth", "3", "--bins", "4", "--M", "7"]),
    ("sim_bin", ["simulate", "--policy", "{root}/solve/policy.csv",
                 "--bins", "4", "--slots", "20000", "--seed", "5",
                 "--trace"]),
    ("sim_threshold", ["simulate", "--policy",
                       "{root}/construct/thresholds.csv",
                       "--slots", "20000", "--seed", "3"]),
    ("sweep", ["sweep", "--bins-list", "2,4", "--dgrid", "1,1.5,2,3"]),
    ("pw_solve", ["solve", *PW, "--dth", "3", "--bins", "4"]),
    # 7 cells over 4 bins and 3 channel pieces: the gap (2, 3] lies in
    # one cell, which also holds a bin edge
    ("pw_construct", ["construct", *PW, "--dth", "3", "--bins", "4",
                      "--M", "7"]),
    ("pw_sim_bin", ["simulate", *PW, "--policy", "{root}/pw_solve/policy.csv",
                    "--bins", "4", "--slots", "20000", "--seed", "5"]),
    ("pw_sim_threshold", ["simulate", *PW, "--policy",
                          "{root}/pw_construct/thresholds.csv",
                          "--slots", "20000", "--seed", "3"]),
)

DIGESTS = {
    "construct/report.txt":
        "db010799c0e2a0df1733ac65cf8d057c898386868f3db7af6e53ce64c1e21877",
    "construct/thresholds.csv":
        "f7c637525df15180e2ba4139c6f4a35d4dd57cca00fae07a9b10e0a3bedc7957",
    "construct_m7/report.txt":
        "402f91e0dda7591d23f587c5aaed65c0ef6af257ac98008c10656f14967159ed",
    "construct_m7/thresholds.csv":
        "f6cb942b5d03bfd9c4686ce688b38c893da1464d241a2a9afd66a5e5ed1ecf5f",
    "pw_construct/report.txt":
        "1f7695b001b6e8c8e85b834550e589c1ec96d853adea2f76afbca3f1bcc4f495",
    "pw_construct/thresholds.csv":
        "5b8af6e2319265a04ec8dcf51ee2a02b1be33e737743c7659bccd74cdd762a24",
    "pw_sim_bin/report.csv":
        "43da3a0529e0a10ee9a63a48e678fd217312adddb5b449187f247e6f6fded0ae",
    "pw_sim_bin/report.txt":
        "2195db3ff874bacfd4bec6b964db5127c3cb3cdb851c0ffa5c37ce705683aefb",
    "pw_sim_threshold/report.csv":
        "5c0d506de5a2d6a93abb01b2ac88e5e2f7ab05513676b5b436ac094bd8c623cc",
    "pw_sim_threshold/report.txt":
        "2d5676c6c7a145e2cd19c0dc8fa08f4d0ba2db1a3deeb63da82672949275b61b",
    "pw_solve/measure.csv":
        "36dabc0f0f911096253340a10ec8d6272b9eaafc648d88e69ba61e24414acba8",
    "pw_solve/metrics.txt":
        "75b383d8ec988355c26d3c064cf5891d1357f820bf1d2077a863bc0366fac8a3",
    "pw_solve/policy.csv":
        "94c14070a0f718a67813f04657006c44d50f5b2c3e05528ec7fb86c9353c8fcc",
    "sim_bin/report.csv":
        "d2938695bc414c89142a55a33d66326b7fdf61762a603147253f6ca12911b434",
    "sim_bin/report.txt":
        "5a96f431650784e7af7901ded2e42ef5db5893e0ed2d969ee328a5e163013722",
    "sim_bin/trace.csv":
        "cd29018e9bb5fdac3b16d425129fb598bfd9081ba8288f0da473c2935da67c45",
    "sim_threshold/report.csv":
        "e6e73b033946e98f5b096f539ceacf5161043f87ac8e4918f1f9eef3f66b2071",
    "sim_threshold/report.txt":
        "f042f2f01a983eff20304152e2c7f541503d360eb2d497929895ebb084174688",
    "solve/measure.csv":
        "243ca2a727d9df2c83a45e782029334c596b3a110f301eb5c6d2aa569d5352c4",
    "solve/metrics.txt":
        "e1b61a2352ccfd8759c4f29a5f3dc158c7e9f0530bf652e7764e427a7a25af51",
    "solve/policy.csv":
        "d7d599c55bdeca3a286248de3e61552bef0b2207649d23736ec71f83d8037fa5",
    "sweep/curve_m2.csv":
        "8a1a730416164ef5141630d4b88060adb7e87c815730ce6e1d4eff578e41238c",
    "sweep/curve_m4.csv":
        "c6fc32643f937f5a2fdd4172aafbf3eb76b0e1bfba2c2cc3ff43e4a44c374ed7",
    "sweep/sup_gaps.txt":
        "4977ead4209e5420473ccbe60c54fb8bd5280c8a0ce3e598a650b3502fe90d69",
    "vertices/distances_m4.csv":
        "9586fca53d42ce288e42da21b8f437eb4986a56d6801cc5bd997ffb059cfe732",
    "vertices/m4_vertex000.txt":
        "e2858b518cea0a302d2d1ae52ae10a8aa75b52ded1c97a0f895a2862abd47bf2",
    "vertices/m4_vertex001.txt":
        "7afbbc61a7255c39af1706aa00a78de895fb488a2d34563d1306de259da03e3e",
    "vertices/m4_vertex002.txt":
        "3bf56e276e076dd38fe01bc1812da007005ea4dc2bed12cd9b58b10be17420b6",
    "vertices/m4_vertex003.txt":
        "6dbe4e3a01e020df021adc91da06046beb85789666aa43c74bbb350d3e67d8f4",
    "vertices/m4_vertex004.txt":
        "f0082960666433f3fd4fa484d467a2d31f439c0eaaf0169612a6fcfe61d12174",
    "vertices/m4_vertex005.txt":
        "21fc9db3b6318cc7e9a999699e9f28a780e086605ca0e3ff1885cd6a993696b7",
    "vertices/m4_vertex006.txt":
        "f95d3d9086b85d4f55c6a5aa1a6bbbb2e2aa31ce835dcb66633a7f9b9c068f3b",
    "vertices/m4_vertex007.txt":
        "70ef7738ebb901c9211d16b7cd06bc95f5964bcb805ddf8afebf680e09ad2f3a",
    "vertices/m4_vertex008.txt":
        "e68440ed17c03fca556071f281fd07854f3d3245d39e6dda4bf26890e32e8691",
    "vertices/m4_vertex009.txt":
        "d9acd74987b29afe40969656b626cab35b48ad8ddcdfd553a96827d11f4a6997",
    "vertices/m4_vertex010.txt":
        "0d5aac36d97956591a87e4f991bf6d36cb0bdf9527d5568aeaef7ddb81d90046",
    "vertices/m4_vertex011.txt":
        "74e16755b4992062e6f9a24479cea169fc94dd0e4ae9a71310db8e5d6c34c263",
    "vertices/m4_vertex012.txt":
        "7d865dffa085b3383cde84607aed998bc94ccf1af0dcdba9af404fb1067bf083",
    "vertices/m4_vertex013.txt":
        "903dcb0269be3e53d4e807f5f0050939eab97bfbeeec61b8f9507ca76df76586",
    "vertices/m4_vertex014.txt":
        "6f442d3a96bda8a399398574a67f7147b75edb54925513f8a24157b888223d39",
    "vertices/m4_vertex015.txt":
        "e072eb8ee23c4d2130f5dda08770cc20479153ea47aace032a02e5af6f0838a1",
    "vertices/m4_vertex016.txt":
        "6e82ba7e940074fdf072dfca4f69b30a7ebf90765ea710bbfff16e0dc8b28fc6",
    "vertices/m4_vertex017.txt":
        "4c20a9eafa224495b98f0dd84a27d24690125b0c3ace96b525e9817608319d11",
    "vertices/m4_vertex018.txt":
        "8a1e348c4085fca841efa745e918a5225fe36ed563cb2c40bcc86870d81b04bc",
    "vertices/m4_vertex019.txt":
        "a0fa16d3815120ef06683e5bb8748e376e5b171e1b04752ff2f4f485293170af",
    "vertices/m4_vertex020.txt":
        "0f95b87c84e77e28afee384c8110be9444511b87a66c98694e5f429fa7164958",
    "vertices/m4_vertex021.txt":
        "e778ac59fe9dc0f54731e2a93ad5eb4f5996ea2b038addc783632d46fd38f35b",
    "vertices/m4_vertex022.txt":
        "dfb11501ac3bd87cf1e4b53599533c19951cad0acadf4982dcf3a056b005bbe2",
    "vertices/m4_vertex023.txt":
        "d2810c9e5620c0a56ff978cef8c26772694f8119db3ffe2145a9a43016a0d8d6",
    "vertices/m4_vertex024.txt":
        "e2bcd1d7d2d2e53a397bad1e1aa6a84a5e713f038bd01c7256088e83e20c6692",
    "vertices/m4_vertex025.txt":
        "4897ae33977185cbbdab05a8aae382974a8020986eabd8b133a7008015a93b64",
    "vertices/m4_vertex026.txt":
        "6eb034f55a3a79f104e7be152eaf521b7e852eca05f9e8c035f3d1958e2b4901",
    "vertices/m4_vertex027.txt":
        "a986d4e4474e233f7a46173af9a4e9a8bbfaf806854b010dea07d69318c7a794",
    "vertices/m4_vertex028.txt":
        "dd979e9431d2100631b4bde1e28218f7b0119a9c074f9673347e2f10e06044b7",
    "vertices/m4_vertex029.txt":
        "d8a47c3930a29a85368dee018d674f801222598ff2ef4dbef536d8ba87b65d97",
    "vertices/m4_vertex030.txt":
        "5b21c85782c26050294ce1b4ad0a08343af8a9076324e976d69688802c7a1304",
    "vertices/vertices_m4.csv":
        "fb4465ce88b997d717f5b86e364f3bc5ba987cfa365482d801834a9128bc1e1f",
    "vertices_span/distances_m2.csv":
        "6d83203c0da0d508a4092e8aa120c37debd813b4b1dca1974ee672919ee6b4bd",
    "vertices_span/m2_vertex000.txt":
        "82472d7a1dba82efa0578291240e798d25f2c6b1ccb8a599a53f51b4d7fd5566",
    "vertices_span/m2_vertex001.txt":
        "869494b25c1299ef4218bfbb370c2a52dc00e95043e9bedc7c721ac12151cacc",
    "vertices_span/m2_vertex002.txt":
        "abec97580581005e6c39625b7ef33852019749a52a4554b35e22c1244e33d1af",
    "vertices_span/m2_vertex003.txt":
        "2f821fae7895775c9387f61a3085720c39bf8ce09d30fd33b519918846e70093",
    "vertices_span/m2_vertex004.txt":
        "8f4c1e728c1ea8a8407874a59281e38d6455ddb39b4e83962b411dde7fe283a4",
    "vertices_span/m2_vertex005.txt":
        "603721c0572bc6bcc9285f878f72fbc5294e1cff483ed81f3448f4448aa3b40c",
    "vertices_span/m2_vertex006.txt":
        "6937e05d5a22ebc6fce3b860415c96ed19b840c2ea9e1ff31c723600c2569c87",
    "vertices_span/m2_vertex007.txt":
        "11ef6f32480030ce609a0e0a7e2522e6293c756d4e7de0cb5af9182493ecfb05",
    "vertices_span/m2_vertex008.txt":
        "ef570ef681901ac4ba3fb0b74e251124c3d814ae4051364b55e09a7d33fdf548",
    "vertices_span/m2_vertex009.txt":
        "51fbc10c4147ca5fc53259c0f4e11586cb024dd809a112c7d4c6a59590d75d84",
    "vertices_span/m2_vertex010.txt":
        "76f4b0fded6d6a2c158a038be6664255edfdf392098589e6fb2dc1164d79e83c",
    "vertices_span/m2_vertex011.txt":
        "ec32d1783910bf2833e9dda11e52f7a569f166c4700c38b5ab7308fb5228d85d",
    "vertices_span/vertices_m2.csv":
        "80b3c5716c4d4e40f3bf1bd3c02ae6794442528a481aa2b24b95acccea836d0a",
}


def run_digests(root) -> dict[str, str]:
    """Run every entry of RUNS under root; sha256 of each output file."""
    (root / "piecewise.json").write_text(json.dumps(PIECEWISE))
    for sub, argv in RUNS:
        argv = [a.format(root=root) for a in argv]
        assert main(argv + ["--outdir", str(root / sub)]) == 0, sub
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.suffix != ".json"
    }


def test_outputs_match_recorded_digests(tmp_path):
    got = run_digests(tmp_path)
    assert sorted(got) == sorted(DIGESTS)
    changed = [name for name in DIGESTS if got[name] != DIGESTS[name]]
    assert not changed, f"outputs changed: {changed}"
