"""Byte-level oracle for the two episode runners.

Each digest is a sha256 over an episode's trace CSV (with or without
interval columns), its JSON metadata and every estimator's snapshot and
diagnostic flags ("none" for a job whose probe never finished). The
digests were recorded from the runners as they stood before they shared
one step loop, so any change in sampling order, regret, estimator updates,
interval recording or metadata shows up here.

The cases cover K in {1, 2, 3, 8, 32}, an unbounded job, tied
difficulties, n < K (probes that never start), n = 1 with K = 2, horizons
that cross the 1024-step draw-block refill, non-default options, a probe
stopped by the 64-step guard, and known lower bounds above the true
difficulties (intervals collapse).

Print the digests of the current code with
``PYTHONPATH=src python tests/test_kernel_golden.py``.
"""

import hashlib
import json
import os
import tempfile

import pytest

from alloc_bandit.allocator import PolicyOptions, run_episode
from alloc_bandit.initialization import run_modified
from alloc_bandit.model import ProblemInstance

# name -> (nus, horizon, base_seed, known lower bounds, extra PolicyOptions)
CASES = {
    "k1": ((0.7,), 50, 3, (0.3,), {}),
    "k1_refill": ((2.5,), 1100, 11, (0.5,), {"seed": 4}),
    "k2_refill": ((0.4, 0.6), 1100, 7, (0.2, 0.3), {}),
    "k2_n1": ((0.4, 0.6), 1, 5, (0.2, 0.3), {}),
    "k2_options": (
        (0.3, 0.9), 600, 2, (0.1, 0.45),
        {"seed": 9, "delta_override": 0.01, "u_alpha_levels": (0.1, 0.3)},
    ),
    "k2_capped_probe": ((1e-25, 0.5), 120, 6, (1e-26, 0.25), {}),
    "k2_violated_bounds": ((0.3, 0.5), 300, 0, (0.6, 0.9), {"delta_override": 0.5}),
    "k3_unbounded": ((0.3, None, 0.8), 400, 1, (0.1, 0.5, 0.4), {}),
    "k3_ties": ((0.5, 0.5, 0.5), 300, 0, (0.25, 0.25, 0.25), {"seed": 2}),
    "k8_refill": (
        (0.05, 0.2, 0.35, 0.5, 0.9, 1.5, 3.0, None), 1030, 13,
        (0.03, 0.1, 0.3, 0.2, 0.5, 0.7, 1.0, 0.6), {},
    ),
    "k8_n_lt_k": (
        (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8), 5, 17,
        (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4), {},
    ),
    "k32_refill": (
        tuple([2.0] * 12 + [1.8] + [2.0] * 19), 1030, 21, tuple([1.0] * 32), {},
    ),
    "k32_n_lt_k": (
        tuple(0.02 * (k + 1) for k in range(32)), 20, 23,
        tuple(0.01 * (k + 1) for k in range(32)), {},
    ),
}

RUNNERS = ("episode", "modified")
VARIANTS = tuple(
    (mode, intervals) for mode in ("weighted", "unweighted") for intervals in (False, True)
)


def trace_digest(trace, directory: str) -> str:
    path = os.path.join(directory, "trace.csv")
    trace.to_csv(path)
    with open(path, "rb") as handle:
        h = hashlib.sha256(handle.read())
    h.update(json.dumps(trace.metadata, sort_keys=True).encode())
    for state in trace.estimators:
        if state is None:
            h.update(b"none")
        else:
            h.update(state.snapshot().encode())
            h.update(repr((state.weight_capped, state.collapsed)).encode())
    return h.hexdigest()


def case_digests(name: str, runner: str, directory: str) -> dict:
    nus, horizon, base_seed, lower_bounds, extra = CASES[name]
    instance = ProblemInstance(nus, horizon, base_seed)
    out = {}
    for mode, intervals in VARIANTS:
        options = PolicyOptions(mode=mode, record_intervals=intervals, **extra)
        if runner == "episode":
            trace = run_episode(instance, lower_bounds, options)
        else:
            trace = run_modified(instance, options)
        out[f"{mode}/{'intervals' if intervals else 'plain'}"] = trace_digest(trace, directory)
    return out


GOLDEN = {
    ('k1', 'episode'): {
        'weighted/plain': '6c078a52a1d56da5e53c7f1144831ca230b5f39334323e5a708a3adebd89ee9b',
        'weighted/intervals': 'a98b71eef24cc833c61a693e7ad552c284f0c1ae770b974dd8a9922906fc2e2c',
        'unweighted/plain': '426468e861c819b0b62ed1661f098c566a5098a9c7ff4c345dcce942272dbebb',
        'unweighted/intervals': '32b5028705904cf6a047867fb6fa3195e2a067fee1f5b74ff124a0dd7ea262fe',
    },
    ('k1', 'modified'): {
        'weighted/plain': 'edcd1d2ecbf0cbedd3926f0112d25f12a6a2062a199f76e11f3b52dd46250f85',
        'weighted/intervals': '164eeddbafd98a38dcb7b40dc95577cb6c0be38342e543c767123754dbee6f5a',
        'unweighted/plain': '0699ecfbe167535ed4ddb61cc3e88e61a0207e506cf64b31c6bcd7fc46c3b0bc',
        'unweighted/intervals': 'bfbd0979ca29c621a68e5f187e19f8b2861e41a913c3088c6720ab02b12ae16b',
    },
    ('k1_refill', 'episode'): {
        'weighted/plain': 'a569ed53395a46679c614744ebd4c637b9350bf38a1039d2d2334af5b166f887',
        'weighted/intervals': '2eeee00ee91f822e54710e84b72f262f968b6bab95290cdbcbea041ac40b6d7f',
        'unweighted/plain': '93b0d93594f654d77f7a879ff13ef0f48a54dfb8d2cbbec40053c9f74b5f066d',
        'unweighted/intervals': '35570e16d2885f215f505da99ac941e4cd5c9d76c2b4f4907a93c6b2cad30063',
    },
    ('k1_refill', 'modified'): {
        'weighted/plain': '902e63c3666717559625f5f5cc0b019c87d918dcdc471922a5f41bc512eea2eb',
        'weighted/intervals': 'f018c0bf6ba6989a3bf7d289c126bd90f6980b2ebb8186ef594ad49f42871cb3',
        'unweighted/plain': 'dd706cd96fb6c0821be18d423535deb09814461ed579ad37539e15f38cc4b1be',
        'unweighted/intervals': '2fad8001586d7a00be348593c3ee0ded5cd0441340e0b6f7375ca666fbfb2a00',
    },
    ('k2_capped_probe', 'episode'): {
        'weighted/plain': 'cb1c8fed222ef68161afc70c88b9ca9208e064fd2f43db5697addd21effc5d67',
        'weighted/intervals': '111bd7986d8c58782add4a5041daa2a378b879e71a15a6966a9daea1e88f3bbf',
        'unweighted/plain': '3e181630e4b56ff138856bdc55da3a9c0c1364edcb08b6ad9f846e211db4963f',
        'unweighted/intervals': '70bdaa9cbc70a7464ff62d1dbe0cfb4a96829eea4ba641e2754602073a2fb924',
    },
    ('k2_capped_probe', 'modified'): {
        'weighted/plain': '9ec1bc3d771c38e29ef5942296a85e643f62dcdfc7647623839cf3ff949de7b1',
        'weighted/intervals': '83f6bdc9bf6fd16ec71bda765ba6423fd4492ee481e2be306c4ea54e6a5f620c',
        'unweighted/plain': '6a0bd455593b21180390b0bd1f1abd268616cb5ab63b51726d2c6ff2dda52b7d',
        'unweighted/intervals': '995ca796afb1565ef9e2cfba7e7a12921c9d02e1f5827c3c3f5ac0cf18956494',
    },
    ('k2_n1', 'episode'): {
        'weighted/plain': 'cd86c367d460809a3a9887fd65c35cea888facde7c8293c4b136a96526ddabe5',
        'weighted/intervals': '26d49c955808d58f2cbdf9f2e895f4a5d3422aa13efd3b2f93b923656ce9404a',
        'unweighted/plain': 'ada863c1d7e68f93ec26a46306c92772f58121f3ff7044c2929df0a5d4ba54b0',
        'unweighted/intervals': '6fedf68f990ef6aaaadc4bc3fd912e0c510776859a1074f1b8d11036cc30c3c1',
    },
    ('k2_n1', 'modified'): {
        'weighted/plain': 'e4651fc755c4520f73820b766aa76f985034b40c383c0db8184f7ab538fc477e',
        'weighted/intervals': 'f013408605dde2d520dde209a668c5c81a9e46985175b6af74a7c90febe6716d',
        'unweighted/plain': '4ce94a3725b3a233a2923ecf3ca6fbc0bcd7cffe97a6a4fc2b21d38ef2c45f6e',
        'unweighted/intervals': 'd39beadd67d3fc6fee1821071726f893602b8341ed849b2f704ac69b60e2a9f5',
    },
    ('k2_options', 'episode'): {
        'weighted/plain': '7e024aa395dc73c30ba23f07e407fe336bc4f0063e40aa6364e74a07c620e0a8',
        'weighted/intervals': '305cb802203d617af2dd626cff0aff9acd46118614290da7e0fb8a30a7e5325a',
        'unweighted/plain': '81a8cdeddacdf5f0b44ab82d963201006dbdbb3dd2731db4866a490862b63153',
        'unweighted/intervals': '30509114fbb5681b565621c4c0d84b1780ea7c537b56f302047296a44796bff3',
    },
    ('k2_options', 'modified'): {
        'weighted/plain': '790cd3bfa97720cfaa018c277b849c16134034487625715b078e23b2a1f4ab80',
        'weighted/intervals': '49f21e0e5ad3c5eef0671569fbba675600d6b3cda232855f0ffea751bfd20a28',
        'unweighted/plain': 'baa1185f7c40675fe2721675c241820e883ad79d486522733e6119959632f232',
        'unweighted/intervals': '2e02bb6c18734f7e15af43e08620d7df4e7574d560d76dfacff8a913544dbe18',
    },
    ('k2_refill', 'episode'): {
        'weighted/plain': 'fe640d11f64688a92e9771c885374ffb7b087c2b77c959274fc780123ac41894',
        'weighted/intervals': '51da82d500780b92daf0181041095c43c10c38848133df97edf441c5707fe441',
        'unweighted/plain': '516c439e769b77ff92e12763fa0b12c05f4f9c9444ea975d8456b8397e2aad07',
        'unweighted/intervals': 'f5be7a54d66328f74153bacd655b1a4479a3c520a7b117977d99bbf0dbb09cd6',
    },
    ('k2_refill', 'modified'): {
        'weighted/plain': '9e6bb98cbf8e4a6961e885bb71bd4e6f827b64fd7e9cf9c36b1290aa45db0826',
        'weighted/intervals': '7fb535fb91ee44efd84b5707cf67fa7d3dd19dc89813769982f025e2034c616a',
        'unweighted/plain': '0bfdee1816da92637853699dfe038a971ad4b73ad3d953cecd92322a71e6a90c',
        'unweighted/intervals': '0dd23ec22d338095f7dafecf70c51fcdab4774cff0860b559ef8e0b5262272a2',
    },
    ('k2_violated_bounds', 'episode'): {
        'weighted/plain': 'c2cd1a2de13bfc0d5da86be9b2ab50c94c5ebbc91f4e088f59e1effa2e41a5e2',
        'weighted/intervals': '416a05e90b686a27bd89753955c7086653f076ed506a5103df4ec77d9d8ee057',
        'unweighted/plain': 'ac04524c0b0fc067006e2dc176c8421bd3af5e4f8b3b1e274b434fa55b15d404',
        'unweighted/intervals': '34cffcc9fba2bc95f1303673c2a50aac8a384b42e2dbef84b996581678c92718',
    },
    ('k2_violated_bounds', 'modified'): {
        'weighted/plain': 'f94b9789435a5cb67614c2662dc1f4c56c150b90ed9ea9abf747dafa2a8e502b',
        'weighted/intervals': 'a8cacfd9573bf0935013d238f2661353ccfdd38e2fb4eaa2a098a3296ad11b06',
        'unweighted/plain': '7d32409c56c16fa37263152e958dc1a189b35bbad960b7e90e3c485ce816b0a3',
        'unweighted/intervals': 'e4ae51728be6913227d4b923a00570e47a1d18c179f954a2b0edb319105f7668',
    },
    ('k32_n_lt_k', 'episode'): {
        'weighted/plain': 'd1071a86a1dd693a481f5a3d61bc8babaa5e8f576026d36d5ad6c2a2169780e0',
        'weighted/intervals': '00f06f331c858bc1b23ca3aed498d277d7efff7d838bf6abdd5fdabaaecef1a3',
        'unweighted/plain': '82dbfd3353d3fb8e28a77ec0947941dfcc35f96eef4e6ecd0264a9b275780407',
        'unweighted/intervals': '888297ecbbc032520eadfdbe84d1b0552dc313a2e69565a77e8d727d021bb1fd',
    },
    ('k32_n_lt_k', 'modified'): {
        'weighted/plain': 'fc746651bb60b9c169086302ffac34add4c75633d5f720d9cdda298fbb78f6b2',
        'weighted/intervals': '048e9dd04d4a1487f414799b1c83b68c2518c1e33400fb93ac55d2a4ee87714c',
        'unweighted/plain': '2e2bcdc54527ea605794b259adf30c62c1ec5e0a4ae6330f9bb6564fab202961',
        'unweighted/intervals': '4ddf3413053cc61098261f28eaefe0897048d74297047697e786a1fa31d7457d',
    },
    ('k32_refill', 'episode'): {
        'weighted/plain': '8c86f860b745b027c07d2c126927d5f9c51b5d6c4e24bcfe5afa561dfd2a960d',
        'weighted/intervals': 'f0a283de4de6c692a1e5f53d4419808828b85a24241b83a0e7074e3f0e798e8e',
        'unweighted/plain': '430e77ca55cf2137c79683a13a7ffa0ac37d21b5825a4da2e19902a557189ac0',
        'unweighted/intervals': '4eeec6824aefe6685ecfb796cc8d682bd956bcad8a16401563eb826eb7216be8',
    },
    ('k32_refill', 'modified'): {
        'weighted/plain': '458d1359a18d7caa759a8be4500ecfcd49ac966ed996a8dfe641e44bcc1e5821',
        'weighted/intervals': '8d540385682d65fc419f0ae19a0ad40de6266083fcf85f95dc17ccda25426a36',
        'unweighted/plain': '81beedba7476c8b769122d535df5d78d03fb34a0dc988cb6eb3e98a0d9774585',
        'unweighted/intervals': 'd4a5220183eeb444ed451dc0a607361f36c0124645549391f8adbd7c5e1a802e',
    },
    ('k3_ties', 'episode'): {
        'weighted/plain': 'a96b357ebeef95cae50d931a7204dcfd15dd661bbeb9037357b92f4b68b3b6af',
        'weighted/intervals': '8db7ace760d1cd49013af3f23906d36d4e7815e3a8e194fe5991dcc7a91c5a2d',
        'unweighted/plain': '7f502102ae09ef84a0fa42bf5caa66d70d9360023448390146034a7b00aa5941',
        'unweighted/intervals': '6c0c7a7814144bc41b737c860bb538060eaf87517619e5ce4412643603e5f9da',
    },
    ('k3_ties', 'modified'): {
        'weighted/plain': 'b6e44e8d0e9a4a87054a5f1d92b9d030748e64f36c9e5185df2b0634b6d2558b',
        'weighted/intervals': '9fb98b0aa85b066368860f6697c2dd506d3b1c996f44e32b2ad58b2d00f40c77',
        'unweighted/plain': '737cf02bd17d5aba1ad73c029dbee3c7b29539c6fc56d36d6238d2fad6aa0567',
        'unweighted/intervals': '907f7ed9cb3cf36a6fc20de399160c1df130c2dc892774c901e9d355905512ea',
    },
    ('k3_unbounded', 'episode'): {
        'weighted/plain': 'b989737dbe0135f36e89b3d6476b0110fbd94abd56f04a444747b47d37bdfa20',
        'weighted/intervals': '5fa1dce711e35c5bcbbceddfd56181291d704b83fb44a0a24c6321bc48bf14d3',
        'unweighted/plain': '8db63e7d64f26ab21225aa059d748ee6865455d36c317ee7cd6affc74b2a535a',
        'unweighted/intervals': 'e655967758e56ff0c5244a6f5c5f1dc22cc35490f2ab937094a76a82ee5731c8',
    },
    ('k3_unbounded', 'modified'): {
        'weighted/plain': '5fd3d53802f446fc1ed4360ce3315fc0f81d9f513ad145f321e9021a3781f3a5',
        'weighted/intervals': '3731d09bc1f9f43fa2b7f44ffa1c8c3ef4146ce85b6120655d749a9d0c3a0f96',
        'unweighted/plain': '01470fc9e58d32cfaf74313beee66e2059ef4300f05b9b5c1f59b4596dab18a0',
        'unweighted/intervals': 'e91711a922eb4d9909df76185cffce53abc046fa6c9e1ea7579b570bbc4fc481',
    },
    ('k8_n_lt_k', 'episode'): {
        'weighted/plain': '889be22e3881bbb3a5cdefdd0b7a1dc47519c88477e406fee7e40bc2dbecac2b',
        'weighted/intervals': '8fe1c357be8a40c4eb6e9b44e7a54b704864eb599829c4ee728a1ebf54c2f81d',
        'unweighted/plain': '67c383d59709cdbaeb102ced2f4ee53bf468a7671d551f502c5cb96109922d51',
        'unweighted/intervals': 'd96e470bb6da461928a9d0a7a95be9401c92abc1485654ca785eadb9a32a16a7',
    },
    ('k8_n_lt_k', 'modified'): {
        'weighted/plain': '80359c95744345d9342f8e5374c4f78b65b1fad005a8e27c9d6bc51a10428ecd',
        'weighted/intervals': 'f2ab873c10e2c181c031f4a9aa5102c763cab0b60685815356709855586961a3',
        'unweighted/plain': 'c2262818915ff42c10525ab4159ffc5d2476c716b5787c64759dbcd8e8fe56ed',
        'unweighted/intervals': 'd97a9824c50b2bdd1b81def931f7d19c52ac4489c0896571e02d40bdcdb099f8',
    },
    ('k8_refill', 'episode'): {
        'weighted/plain': '5d254570b158faa6bd8543d8f9b6991d1ce3dbe090114273cb2bb2d2049fd081',
        'weighted/intervals': '59b281c721b8bb59ba698ada85e4b48da0612af86464736fc7f0734e3552bc09',
        'unweighted/plain': '341b50ebabea3345b18c1f81540c97534e4bce59b72df09b521a50c56aa39304',
        'unweighted/intervals': '51fea00f5db04b0aeb073da8231efd6a3812d0ba4054294e3eecb9683437e319',
    },
    ('k8_refill', 'modified'): {
        'weighted/plain': 'dde5538c2aa706104d9dd9a7105b046af37fb1dbffc3c4222cf79aa4badad9ae',
        'weighted/intervals': '1b22acd9809cb17995cd954b22c91c58721bd6b0b74232d65f4b23c2c0996899',
        'unweighted/plain': 'f7726a3eaf0472d7e8a0928fd1053fc437683c3317d4e02d2c0bdc110f403af5',
        'unweighted/intervals': 'acd265355032b06ade4fd6d6d5b769973e40d72c0b3e5d949d8bce0034748330',
    },
}


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_runner_output_matches_recorded_digest(name, runner, tmp_path):
    assert case_digests(name, runner, str(tmp_path)) == GOLDEN[(name, runner)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            for which in RUNNERS:
                print(f"    {(case, which)!r}: {{")
                for key, value in case_digests(case, which, scratch).items():
                    print(f"        {key!r}: {value!r},")
                print("    },")
