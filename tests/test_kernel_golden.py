"""Byte-level oracle for the two episode runners.

Each digest is a sha256 over an episode's trace CSV (with or without
interval columns), its JSON metadata and every estimator's snapshot and
diagnostic flags ("none" for a job whose probe never finished). The
kernel's estimators no longer count updates or fully allocated steps, so
each estimator is replayed from the trace by ``reference.replay``, its
slots must equal the replay's bit for bit, and the replay's
``reference.snapshot`` is what is hashed. The
digests were recorded from the runners as they stood before they shared
one step loop, so any change in sampling order, regret, estimator updates,
interval recording or metadata shows up here. The runners' metadata has
since shrunk to ``delta`` and the probe records' ``job``, ``steps_used``
and ``capped``; ``trace_digest`` rebuilds the fields they no longer write
from the case's inputs before it hashes.

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
import reference
from reference import kernel_slots

# name -> (nus, horizon, base_seed, known lower bounds, extra PolicyOptions)
CASES = {
    "k1": ((0.7,), 50, 3, (0.3,), {}),
    "k1_refill": ((2.5,), 1100, 11, (0.5,), {"seed": 4}),
    "k2_refill": ((0.4, 0.6), 1100, 7, (0.2, 0.3), {}),
    "k2_n1": ((0.4, 0.6), 1, 5, (0.2, 0.3), {}),
    "k2_options": (
        (0.3, 0.9), 600, 2, (0.1, 0.45),
        {"seed": 9, "delta_override": 0.01},
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


def trace_digest(trace, directory: str, instance, options, lower_bounds) -> str:
    """The metadata hashed here is the one the runners wrote when the
    digests were recorded, rebuilt from the episode's inputs: the copied
    ``nus``, ``horizon``, ``base_seed``, ``seed`` and ``mode``, the
    ``"instance"`` field (the first 16 hex digits of the sha256 of the
    instance's JSON), the known ``initial_lower_bounds`` or, in each probe
    record, ``nu_lower0`` = 2^-steps_used and the consumption 2^-1 ...
    2^-steps_used. The trace's own metadata (``delta`` and the probe
    records) enters as written, so the recorded digests stay valid.

    Each estimator is replayed from the trace; the kernel state must equal
    its replay in every slot, and the replay's snapshot, which adds the
    counts ``t`` and ``T``, is hashed in its place."""
    path = os.path.join(directory, "trace.csv")
    trace.to_csv(path)
    with open(path, "rb") as handle:
        h = hashlib.sha256(handle.read())
    doc = {"nus": list(instance.nus), "horizon": instance.horizon, "seed": instance.base_seed}
    meta = {
        **trace.metadata,
        "nus": list(instance.nus),
        "horizon": instance.horizon,
        "base_seed": instance.base_seed,
        "seed": options.seed,
        "mode": options.mode,
        "instance": hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16],
    }
    if lower_bounds is None:
        meta["init_records"] = [
            {
                **r,
                "nu_lower0": 2.0 ** -r["steps_used"],
                "consumption": [2.0**-i for i in range(1, r["steps_used"] + 1)],
            }
            for r in trace.metadata["init_records"]
        ]
    else:
        meta["initial_lower_bounds"] = list(map(float, lower_bounds))
    h.update(json.dumps(meta, sort_keys=True).encode())
    oracles = reference.replay(trace, options, lower_bounds)
    for k, (state, oracle) in enumerate(zip(trace.estimators, oracles, strict=True)):
        if state is None:
            assert oracle is None, f"job {k}"
            h.update(b"none")
        else:
            assert kernel_slots(state) == kernel_slots(oracle), f"job {k}"
            h.update(reference.snapshot(oracle).encode())
            h.update(repr((state.weight_capped, state.collapsed)).encode())
    return h.hexdigest()


def case_digests(name: str, runner: str, directory: str) -> dict:
    nus, horizon, base_seed, lower_bounds, extra = CASES[name]
    instance = ProblemInstance(nus, horizon, base_seed)
    out = {}
    for mode, intervals in VARIANTS:
        options = PolicyOptions(mode=mode, record="intervals" if intervals else "steps", **extra)
        if runner == "episode":
            trace = run_episode(instance, lower_bounds, options)
        else:
            trace = run_modified(instance, options)
        bounds = lower_bounds if runner == "episode" else None
        digest = trace_digest(trace, directory, instance, options, bounds)
        out[f"{mode}/{'intervals' if intervals else 'plain'}"] = digest
    return out


GOLDEN = {
    ('k1', 'episode'): {
        'weighted/plain': '57cda1c1a0502f4e19c2237be032e68951e08a978e399d1b01e91d5b8d73aa4a',
        'weighted/intervals': '4d70b1499b5862fb19a13e6332270c3c0a0affdfe470c07019e3c38a4859e0b0',
        'unweighted/plain': '83c3f562e0dff51eb781404a60b7fc2d25f67c6849d80d0e443892e8a1756040',
        'unweighted/intervals': '0105670e6262f73610e74adc7d2e10d114753582231e6048d7c0b021fd732cca',
    },
    ('k1', 'modified'): {
        'weighted/plain': '0e581c9dea1693a170bc17afd140b25f102dfc372d96e9f0ee0531a9d0598f70',
        'weighted/intervals': 'cc74ce3bb9d4f8eb819efcfc612dd995c6038d3dfc65d83857bdf5d780420128',
        'unweighted/plain': 'd2988664d5e805f84e46e84a1466abae7b30ae727af0b865ee40865b4af8093f',
        'unweighted/intervals': '8ff3436b1298818d74dbaf5072c4e580b5ddf830100e7e01822d484bd3a69589',
    },
    ('k1_refill', 'episode'): {
        'weighted/plain': 'a11ffe654a5f7224dcea3a1b6f52f9ef5f96e9f243ebf8ef2d373d967285899a',
        'weighted/intervals': 'ce0543761910dccd8789e3f40c1a38cb1ceb948c0ad3388eba515184a14077e2',
        'unweighted/plain': '88ca7f61902e700a6920fe2777cd37c6a3f8097eb722a4dd303a0fa5bdd4948f',
        'unweighted/intervals': 'bf042599c0a50d97616aefee17c330a0b53b18ca323596b7ca8fa53f7115f3a3',
    },
    ('k1_refill', 'modified'): {
        'weighted/plain': 'f4d38e4edb1190b2bdefcda9db91f09802c855214ea590ae9b91f6eff2aa5830',
        'weighted/intervals': '598331532ea2341422a45cde373f6aa19cbe130c21f08e5d1fe7129a07663bbc',
        'unweighted/plain': 'a16c8c7d1715766011976b8058dcaf4136428454a98fa0a6e666cf48a50e9ceb',
        'unweighted/intervals': '6ec5452959870c95150b9aacb03953ba7dfba7d9a84b733378f77fc3754492c3',
    },
    ('k2_capped_probe', 'episode'): {
        'weighted/plain': '8552d8edd0a407461e1a5a8e9c1eac73b06727a37053ab03dc30be7491b660b3',
        'weighted/intervals': '6ff2a21c229161e10377a22e36633c0627d83b240ce3ec7f41a3190907652307',
        'unweighted/plain': '115a98f67e885e146d3598893551c34a4e1a5ad7968da5c697568a5a17ca7f71',
        'unweighted/intervals': 'c6bf2832708ff3ec070809c13fce4d88c1b72ac0d77c3a6b59d0e36856d142ad',
    },
    ('k2_capped_probe', 'modified'): {
        'weighted/plain': '80be95e1561dcec41bce85fe7ca8d6f80c9002650a08940a30e9ae0ff9324dae',
        'weighted/intervals': 'f1933b2b61640ba0eff901ad6ae3d9ce937e39cf5156359f319b9e99b186db94',
        'unweighted/plain': '2af630098bd356f1e690a111751b1478c92d2469428613ff136079a7b2fc3a7d',
        'unweighted/intervals': '6954d12af74fb1a38d920a7588b659da49aeba857992ed8a9f56bc2e3e76e3cd',
    },
    ('k2_n1', 'episode'): {
        'weighted/plain': '5a92dba96adbd33f3ae2f5c38e180b4003cae5ea1f1e23832a041cae4e99e585',
        'weighted/intervals': 'aa2772b1512d2314e6ce095ae8e923f89deb4be9c8b2601ea97c61657edaec07',
        'unweighted/plain': '24fead751f21e6ccdecf81ce95c4ee4fe01825fbfdba315acfba1f2c80ceef2a',
        'unweighted/intervals': 'e32f659e9ec08dc1fb23c554a3d196a002ba22c6fcae5c041d4fb890958e3b98',
    },
    ('k2_n1', 'modified'): {
        'weighted/plain': 'e4651fc755c4520f73820b766aa76f985034b40c383c0db8184f7ab538fc477e',
        'weighted/intervals': 'f013408605dde2d520dde209a668c5c81a9e46985175b6af74a7c90febe6716d',
        'unweighted/plain': '4ce94a3725b3a233a2923ecf3ca6fbc0bcd7cffe97a6a4fc2b21d38ef2c45f6e',
        'unweighted/intervals': 'd39beadd67d3fc6fee1821071726f893602b8341ed849b2f704ac69b60e2a9f5',
    },
    ('k2_options', 'episode'): {
        'weighted/plain': '7a772368d507bfff6e52735604854f7552a7d5c76e85b848b928c69d098f8c71',
        'weighted/intervals': '813db9fd549f9628a76fed6b7efe84ae0d13e42b8a93dda2fec5a4b5430bc567',
        'unweighted/plain': 'ad389d3fd19e6e5ea2381505afdeb0c0f4b8b3d9ec3ae7cea28f2f1bef1513a0',
        'unweighted/intervals': 'a83620a37629006a137db1d717f7cd59417f2c300abe913f9acffa4e3300239c',
    },
    ('k2_options', 'modified'): {
        'weighted/plain': '851f5a05d072d72232dd03f082790f33477cdc1efb9470991df83e9c3fd0b0dc',
        'weighted/intervals': '2c1161deec9d0ccdce4722abb637ee04906c678e98738e69b3e76836aec5d96b',
        'unweighted/plain': 'fefc504bb40074cef5f09623cde23737c4606453fc5b087f199efe88d17ac95d',
        'unweighted/intervals': 'ac4a070744c1354765198f8802d0553c4c50aeecb6db3eca0a570da1de7a4952',
    },
    ('k2_refill', 'episode'): {
        'weighted/plain': '4b060cc31466507b7e2a171095b735adf91a719b74b6d07131403c73786b3884',
        'weighted/intervals': '870c9e6f7710c594c596b572edf22c313a2ceb7643dc65d2f23f8cf9907dcc3e',
        'unweighted/plain': '21149bf4ef4afd1af160ef090c9672cba954d1e6aecc48e0271ea79c85c40c53',
        'unweighted/intervals': 'a61c177c1ea24469402484ef504e4d267c21093661cad5da4b431363fd3a4049',
    },
    ('k2_refill', 'modified'): {
        'weighted/plain': '5983be0ddcf94485e9c242b87b7a29a0ed075135865c4e419de6dc64f5c8e19c',
        'weighted/intervals': '91c93b0905dc69d25639cb44750d02660b51cb2a174cb5e60785288785f03c97',
        'unweighted/plain': '5c53887648c3738df8fe92dc64b191461d8ef75bbae6b89cd85e5761cf2d516c',
        'unweighted/intervals': 'bec4b3ca1ce6186151b82fa3cbdb968e53cbf824eb9afe558da9b5a9fe83b549',
    },
    ('k2_violated_bounds', 'episode'): {
        'weighted/plain': '08949a8af8884e278cf414e1ba431cd3e8c019f41736a8c97282bdc77bcb12b0',
        'weighted/intervals': 'bc50a2e2fd1551583221b1802ccca2022087507326e8b1cec910fb28b430afdf',
        'unweighted/plain': 'b34d6e4957ff37b14cb164436a9f1e3448872f2326e629103c6e5ebb66715caf',
        'unweighted/intervals': '60997b4cbf330527bbb7ccfafa23a4ee47dc6be0217e3f49c256a3fb36bb133f',
    },
    ('k2_violated_bounds', 'modified'): {
        'weighted/plain': '5793a78a6063412f07c11310d54a6213ef45d51dd908ec5427108efd28f39ec8',
        'weighted/intervals': 'cf68d128f6ff95bdcde602449ca180a6774e7f7051087260f94230fb2b919c46',
        'unweighted/plain': '8834dcd2452645f4b1a5e8de03d5121f80790622188c03465c528358749c4188',
        'unweighted/intervals': '8af0ea0f250380a21ba7e0be936a0c82580aed37c7d0f3584c7ebef2a0edbff8',
    },
    ('k32_n_lt_k', 'episode'): {
        'weighted/plain': '8ff8e2f48a6392bcb73f73fae947b52f80787f0505ceeb024460c4b01cc2c7ac',
        'weighted/intervals': '79cdf4f62d3432bde3c46af10777a67900411488cb25ca471cafc3e8745c5e76',
        'unweighted/plain': '8e83e930f4bb9d7db98b17355986279c92c3b3971f71f184921599c9cec6e6b9',
        'unweighted/intervals': '59e129febc768b1d0d7b6c5fdd614a260dd47ab531065440343972bbeac07a6d',
    },
    ('k32_n_lt_k', 'modified'): {
        'weighted/plain': 'bedf3f046e298c8d78d68c839e40d929ed4cfbc6b50bdaf0018420781b1b7d80',
        'weighted/intervals': '1c16dbed6bde9d63ceba54fc5f97d36d3e97f976bac81d254078dc7e62740cc3',
        'unweighted/plain': '79880ff6b63f4787b470a40d0a57f568b878ded7fa261345214874ad38d53b8b',
        'unweighted/intervals': '84348eefcabfa94cd0c6e3cdc25a0ed24e9a9e5a3730b5e8d366ed30e63c8e52',
    },
    ('k32_refill', 'episode'): {
        'weighted/plain': '3a99e7e01a4746dfc4abeddb5fe073702904895c56783cf3dd183d55349b6fe1',
        'weighted/intervals': '23061da82907023a07b70e0d3954830da968da82ecc12042febd3a7f4ceede37',
        'unweighted/plain': '103c769bd85d7132503fa3ebc4a1cfda8af26ee17d562729e3a2682d85601081',
        'unweighted/intervals': 'f44b744b4a5c701bacfacbaa07d162d985940dfebcfff97e207d5439c5c006d8',
    },
    ('k32_refill', 'modified'): {
        'weighted/plain': '3dd2616bcc1c33b93205f57ffd0de092bed3c77d3917bae0893a4aeca1328a75',
        'weighted/intervals': '135709147a2c50381f021cd9071dff08ed354f9f65e869b9b50f7524fe60eee6',
        'unweighted/plain': '9cf612a396a6ba2462efe004644a00e38112e5053bc2c00afed4855b7821cf44',
        'unweighted/intervals': '8c48f1bcd97a9363ec3813d075738e7f1d88813ba1825bc44755cac00524d17a',
    },
    ('k3_ties', 'episode'): {
        'weighted/plain': '76ea2ad4833d25650ca4db7910255db75e020dcaf260e89146a7c3089d76750d',
        'weighted/intervals': '79194be416dc89d496b028e725a7401e9005f79fbdae8f36354f407707dee243',
        'unweighted/plain': '001a36e30b6fbc787634add10883a8c0503d8eb87c66224810995fa443c98d46',
        'unweighted/intervals': 'e3d10a1af441a741ce32926078e4369a6dbf111d144201f783233b7e137ac2cc',
    },
    ('k3_ties', 'modified'): {
        'weighted/plain': '0e61fb1b5a7fc7dc86082ca6afed5b3fd4cb4b7507ae22f959715e0b53559825',
        'weighted/intervals': '134495f599d636116db3ed3121573a5c945dceea6def53abda94be85efb3fd84',
        'unweighted/plain': 'f8e65437c6c4de74e8045f03584826cddac8aaa9f617a41f1fdba335a9fc672f',
        'unweighted/intervals': 'ca0ec6fb9ef882b31734971ca3c51fa1ffe26bb6d811d405c49c5316f15682b0',
    },
    ('k3_unbounded', 'episode'): {
        'weighted/plain': 'b46d44e1be49c646e24b630611a292431cca4c7f627ad19388f083222319040b',
        'weighted/intervals': '0a8bc1143dce2771f83cb38db1a818e6e312f449e41632fe927f1f8cc8a91c43',
        'unweighted/plain': '8060334b24acc562cb468ffe5e89b08e033f4bf3a607c5606ff9a93fb3843822',
        'unweighted/intervals': '09cb49c91270fa304d842127b2dffd7ef38f1841a792315de73ede04bdca7ed4',
    },
    ('k3_unbounded', 'modified'): {
        'weighted/plain': '01e4f9d6a4e6e85ebef5e2a1bd3249feda16b33a021f411089b7fd01c932159e',
        'weighted/intervals': '6aa490991f7f136283dcea8b037073a501318e83244de30267c378f98e4186cc',
        'unweighted/plain': 'c3075034e8e8e1d6eae3c22bddac1d06fa282193e73b01d191a82aede2beba48',
        'unweighted/intervals': '6e655f3dfccd1b4e3bbe9bbaae78fbc27c6bef9e2418cdfbada64678a56988e1',
    },
    ('k8_n_lt_k', 'episode'): {
        'weighted/plain': '07b5a3972f59d3dcafa792796f1934a9c35a54c18bef35caa9897d656ac6bede',
        'weighted/intervals': '85c7fee51dc8763d8c273807ea8376018f73e00346e0e1c407717d2c52af80a2',
        'unweighted/plain': 'aabe709e710c93322b372afe3ef1e0d0a1e908937f658231a55c7313fae4d5e5',
        'unweighted/intervals': 'bca7993160817ac5cf550aaf1454927e7172540c77ee8101a068302220705c2e',
    },
    ('k8_n_lt_k', 'modified'): {
        'weighted/plain': '1a1370136b58c31f40820a2fbbdf0016197276d8883e85fa56409ab83c39e2af',
        'weighted/intervals': 'dcf2edd6730590c663b5860ee99d4b13e29f5251146ed88d6cdd606abcf4608b',
        'unweighted/plain': '7b4ca044315e0a8dc6642f2c44e422402a45955fa0a3cd056bdee989dbce5834',
        'unweighted/intervals': '90094e298db6cdf39a4f65c0719a65efa8034ebdbc07db089ba7046846ea98b7',
    },
    ('k8_refill', 'episode'): {
        'weighted/plain': '8d8c53cc1f6f9c0658e9e242fd50f170a6415ed67f0d76c39cc5597898bd2b1a',
        'weighted/intervals': 'fb829a9ca29789e3550dfacbac49345db3202877ab1074b4cf68f5088475fb49',
        'unweighted/plain': '3fb3e7cd0d7bfa0285ca3d3279315477ae2a22b35372885149315e2c38cc5424',
        'unweighted/intervals': 'e3ff3438258bfe34c51e5508f9b581033e1d5b97668eb0a0ce6cfb50515c62b5',
    },
    ('k8_refill', 'modified'): {
        'weighted/plain': 'f695b8c57d119c87c3f7473ff7148ac180c1f14fc2a246ab96a082c6c0186c5c',
        'weighted/intervals': '199c734fe9f2391219475fb7103160076df2d4d5e4e569e8da284dddfe6ed895',
        'unweighted/plain': 'e9022f54d9287f0a5ddddb2cf454e82d73b026047a206b273f84e34e6544d689',
        'unweighted/intervals': 'd201693d2245ddd715f469beecd00178d3fe8a75ddcd95800540f6aa908d679c',
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
