"""Golden digests of every byte-stable CLI output on the bundled fixtures,
and of the simulation outputs of one multi-rate program.

Criterion 9 and test_outputs_byte_stable compare two runs of the same code;
this file compares against bytes recorded once, so a refactor that changes
any output fails here. A change that means to alter an output re-records
the digests (`python tests/test_golden.py` prints the table) and says why in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from amstack import fixtures
from amstack.cli import main

# name -> (program, profiles, disturbances, stochastic run seconds); a
# disturbance window must lie within the run, and av's ends at 6 s
FIXTURES = {
    "robot_vacuum": ("robot_vacuum.amg", "robot_vacuum_substrate.json", None, "3"),
    "av": ("av.amg", "av_substrate.json", "av_disturbance.json", "6"),
    "orb": ("orb.amg", "orb_substrate.json", "orb_disturbance.json", "3"),
    "diamond": ("diamond.amg", "diamond_substrate.json", None, "3"),
}


# A multi-rate program the fixtures lack: one source feeds two sinks at
# 100 Hz and 20 Hz whose emits coincide every 50 ms, the faster sink bound
# first so it has the lower node id. One 1-core device is loaded to about
# 100% (4 ms every 10 ms plus 31 ms every 50 ms), so jobs miss and some are
# still running when the run ends. Equal-time events of the two sinks are
# what pins the simulator's tie order.
MULTIRATE_AMG = """\
require Cam { frequency = 100 Hz; message_size = 1 KB }
require Fast { frequency = 100 Hz; message_size = 1 KB }
require Slow { frequency = 20 Hz; message_size = 1 KB }

node fast = Fast(Cam)
node slow = Slow(Cam)

contract end_to_end { latency <= 20 ms }
"""
MULTIRATE_PROFILES = {
    "devices": [{"id": "cpu0", "name": "cpu", "class": "cpu", "cores": 1, "link_bw_bps": 1e8, "idle_w": 1.0}],
    "profiles": [
        {"op": "Fast", "variant": "base", "class": "cpu", "lat_ms_mean": 4.0, "lat_ms_std": 0.5, "energy_mj": 2.0},
        {"op": "Slow", "variant": "base", "class": "cpu", "lat_ms_mean": 31.0, "lat_ms_std": 3.0, "energy_mj": 9.0},
    ],
}


def _fixture_runs(name: str, out_dir: str) -> dict[str, list[str]]:
    """Run name -> argv, without --format and --out (added by _digests)."""
    amg, profiles, disturb, seconds = FIXTURES[name]
    spec = [fixtures.path(amg), "--profiles", fixtures.path(profiles)]
    stochastic = ["--duration", seconds, "--stochastic", "--seed", "7", "--adapt"]
    if disturb:
        stochastic += ["--disturb", fixtures.path(disturb)]
    return {
        "check": ["check", *spec],
        "check-100ms": ["check", *spec, "--contract", "end_to_end latency <= 100 ms"],
        "schedule": ["schedule", *spec],
        "envelope": ["envelope", *spec, "--limit", "64", "--seed", "3"],
        **_simulation_runs(spec, stochastic, seconds, out_dir),
    }


def _simulation_runs(spec: list[str], stochastic: list[str], seconds: str, out_dir: str) -> dict[str, list[str]]:
    return {
        "simulate": ["simulate", *spec, "--force", "--duration", "2"],
        "simulate-adapt": ["simulate", *spec, "--force", *stochastic],
        "report": ["report", os.path.join(out_dir, "simulate", "trace.jsonl"), "--duration", "2"],
        "report-adapt": ["report", os.path.join(out_dir, "simulate-adapt", "trace.jsonl"), "--duration", seconds],
    }


def _multirate_runs(out_dir: str) -> dict[str, list[str]]:
    amg = os.path.join(out_dir, "multirate.amg")
    profiles = os.path.join(out_dir, "multirate_substrate.json")
    with open(amg, "w", encoding="utf-8") as fh:
        fh.write(MULTIRATE_AMG)
    with open(profiles, "w", encoding="utf-8") as fh:
        json.dump(MULTIRATE_PROFILES, fh)
    stochastic = ["--duration", "2", "--stochastic", "--seed", "7", "--adapt"]
    return _simulation_runs([amg, "--profiles", profiles], stochastic, "2", out_dir)


def _digests(runs: dict[str, list[str]], out_dir: str) -> dict[str, tuple[int, dict[str, str]]]:
    """Run name -> (exit code, {stdout or written file: sha256})."""
    result = {}
    for run, argv in runs.items():
        run_dir = os.path.join(out_dir, run)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = main([*argv, "--format", "json", "--out", run_dir])
        blobs = {"stdout": stdout.getvalue().encode()}
        for f in sorted(os.listdir(run_dir)):
            with open(os.path.join(run_dir, f), "rb") as fh:
                blobs[f] = fh.read()
        result[run] = (rc, {k: hashlib.sha256(v).hexdigest() for k, v in blobs.items()})
    return result


GOLDEN = {'av': {'check': (0,
                           {'feasibility.json': 'c10564d9c5b4141d6d51893f5b3f0834fe61338edb199345138a3a6bdfe87ca0',
                            'stdout': 'c10564d9c5b4141d6d51893f5b3f0834fe61338edb199345138a3a6bdfe87ca0'}),
                 'check-100ms': (0,
                                 {'feasibility.json': 'c10564d9c5b4141d6d51893f5b3f0834fe61338edb199345138a3a6bdfe87ca0',
                                  'stdout': 'c10564d9c5b4141d6d51893f5b3f0834fe61338edb199345138a3a6bdfe87ca0'}),
                 'envelope': (0,
                              {'envelope.csv': '263dd0ae951e6cc5145e6a69830de25a1500163716e1024ad503638ecc8f03c7',
                               'envelope.json': '8126abea885cb61c07e459d261b4e482adccadb4166f606fc2740ece56c5bc2b',
                               'stdout': '8126abea885cb61c07e459d261b4e482adccadb4166f606fc2740ece56c5bc2b'}),
                 'report': (0,
                            {'metrics.json': 'd9c0384894154d938879d936bc5a8f361d0807a3e01d7a5ca5a1e9cd6e5335de',
                             'stdout': 'd9c0384894154d938879d936bc5a8f361d0807a3e01d7a5ca5a1e9cd6e5335de'}),
                 'report-adapt': (0,
                                  {'metrics.json': 'ce301984714626cf89220c2367a6eb9d014100af82209f80ada1c3f091290c0a',
                                   'stdout': 'ce301984714626cf89220c2367a6eb9d014100af82209f80ada1c3f091290c0a'}),
                 'schedule': (0,
                              {'mapping.json': '149cac05ba191c2fb366aabca774c2f053df89266e8b76c727c13d09790c57f5',
                               'stdout': '149cac05ba191c2fb366aabca774c2f053df89266e8b76c727c13d09790c57f5'}),
                 'simulate': (0,
                              {'metrics.json': '2ad6905a51ab38d64fc763bc6c0daef620a8aa9230a4c636358cd9036eeae978',
                               'stdout': '2ad6905a51ab38d64fc763bc6c0daef620a8aa9230a4c636358cd9036eeae978',
                               'trace.jsonl': '4e6c9a9f0f85084aeec9b443d1645fa3eec829e4f296d954bcd0c5945c6d144f'}),
                 'simulate-adapt': (3,
                                    {'metrics.json': '8e4cea6a049a50a2752081be30cef915ac0a2b160fcf8dec965c19c56e3eadc2',
                                     'stdout': '8e4cea6a049a50a2752081be30cef915ac0a2b160fcf8dec965c19c56e3eadc2',
                                     'trace.jsonl': 'cc3aa208d89f7cac22f57a733f6c54dfa39121a932f9527e7e5551a26d674cab'})},
          'diamond': {'check': (0,
                                {'feasibility.json': '01d8ce66968159cc502f5ae19ed10ebdfc35e1d5661fc1e268f69edafceb05d6',
                                 'stdout': '01d8ce66968159cc502f5ae19ed10ebdfc35e1d5661fc1e268f69edafceb05d6'}),
                      'check-100ms': (0,
                                      {'feasibility.json': '01d8ce66968159cc502f5ae19ed10ebdfc35e1d5661fc1e268f69edafceb05d6',
                                       'stdout': '01d8ce66968159cc502f5ae19ed10ebdfc35e1d5661fc1e268f69edafceb05d6'}),
                      'envelope': (0,
                                   {'envelope.csv': 'b2d0eced04ef79b04b8c1773128d80189a178de3fb4c2c25c5c3afa639e4c09b',
                                    'envelope.json': '041f754e9c96a2df439d9044406a07a57faf20f14d96b6e8fc73743992ca3f1a',
                                    'stdout': '041f754e9c96a2df439d9044406a07a57faf20f14d96b6e8fc73743992ca3f1a'}),
                      'report': (0,
                                 {'metrics.json': '21e1baadd725a22625b0c74bbc881b43e357309a48bc764a28ff7d9f3e1b84e4',
                                  'stdout': '21e1baadd725a22625b0c74bbc881b43e357309a48bc764a28ff7d9f3e1b84e4'}),
                      'report-adapt': (0,
                                       {'metrics.json': '290c3b8b45a0967f61d674c61156070fb58514a3ac73b6046ce5beabe706ece1',
                                        'stdout': '290c3b8b45a0967f61d674c61156070fb58514a3ac73b6046ce5beabe706ece1'}),
                      'schedule': (0,
                                   {'mapping.json': '9d7bc9019cda96e637b736a1f95176af160138effe9bf3fa83487c94e43b3e2d',
                                    'stdout': '9d7bc9019cda96e637b736a1f95176af160138effe9bf3fa83487c94e43b3e2d'}),
                      'simulate': (0,
                                   {'metrics.json': '21e1baadd725a22625b0c74bbc881b43e357309a48bc764a28ff7d9f3e1b84e4',
                                    'stdout': '21e1baadd725a22625b0c74bbc881b43e357309a48bc764a28ff7d9f3e1b84e4',
                                    'trace.jsonl': 'ccb50cfc9031eb22f304cdc3566c8c593c55fbe86f67b0b0eb188ed5e73373f3'}),
                      'simulate-adapt': (0,
                                         {'metrics.json': '290c3b8b45a0967f61d674c61156070fb58514a3ac73b6046ce5beabe706ece1',
                                          'stdout': '290c3b8b45a0967f61d674c61156070fb58514a3ac73b6046ce5beabe706ece1',
                                          'trace.jsonl': '99b2f32620682b621335ed52a59813eacb178a6346e0ca50806476221cd9ce85'})},
          'orb': {'check': (0,
                            {'feasibility.json': '1eedd1aa7a9bc1fc92b1f831e3e22dc50d2f45311238c9a29a68e09b77f5ae6d',
                             'stdout': '1eedd1aa7a9bc1fc92b1f831e3e22dc50d2f45311238c9a29a68e09b77f5ae6d'}),
                  'check-100ms': (0,
                                  {'feasibility.json': '1eedd1aa7a9bc1fc92b1f831e3e22dc50d2f45311238c9a29a68e09b77f5ae6d',
                                   'stdout': '1eedd1aa7a9bc1fc92b1f831e3e22dc50d2f45311238c9a29a68e09b77f5ae6d'}),
                  'envelope': (0,
                               {'envelope.csv': '22182df5cb286c88ec15d45769dfdc6aacf9070c8517f8118ae2607784f3e31e',
                                'envelope.json': 'fe5670728f904bfdc9f7b56d054f483debb5b2cf9f6db70078e26065e48ce354',
                                'stdout': 'fe5670728f904bfdc9f7b56d054f483debb5b2cf9f6db70078e26065e48ce354'}),
                  'report': (0,
                             {'metrics.json': '1d6fcdb994515ed5b0757ee4d1a5f372f8236adb0af1d7b8773ce1406f513e34',
                              'stdout': '1d6fcdb994515ed5b0757ee4d1a5f372f8236adb0af1d7b8773ce1406f513e34'}),
                  'report-adapt': (0,
                                   {'metrics.json': '0450bede435a56221416ed8023fb6a7e73f57a13cebfc8e7732ea0d7d8c886f1',
                                    'stdout': '0450bede435a56221416ed8023fb6a7e73f57a13cebfc8e7732ea0d7d8c886f1'}),
                  'schedule': (0,
                               {'mapping.json': '60eb05222cb3ea7dcdfccc97a04ae70e774b8e00cb66957300e717cacc9b6db5',
                                'stdout': '60eb05222cb3ea7dcdfccc97a04ae70e774b8e00cb66957300e717cacc9b6db5'}),
                  'simulate': (0,
                               {'metrics.json': 'f615e87851f48c12a76b512cbbbe8f1a1056b69a7246726cd8e195dadce44e88',
                                'stdout': 'f615e87851f48c12a76b512cbbbe8f1a1056b69a7246726cd8e195dadce44e88',
                                'trace.jsonl': '092b89cc26aff2ce8891630be7e48141426d957d76c51858a1fd2fa5a714deb5'}),
                  'simulate-adapt': (0,
                                     {'metrics.json': 'd5b1494c730a1d400a6858635879e4ec13838167b70fa814808511ec7dbdfcc9',
                                      'stdout': 'd5b1494c730a1d400a6858635879e4ec13838167b70fa814808511ec7dbdfcc9',
                                      'trace.jsonl': '1a5db258f392dc66cd735a25e3f0142de18ee4365d8e72ccf3c75b27471281c2'})},
          'robot_vacuum': {'check': (0,
                                     {'feasibility.json': '5e05476e85c367f9516fbdd9b9b3aa644fac7cebcae3d820ca280686288763e0',
                                      'stdout': '5e05476e85c367f9516fbdd9b9b3aa644fac7cebcae3d820ca280686288763e0'}),
                           'check-100ms': (0,
                                           {'feasibility.json': '5e05476e85c367f9516fbdd9b9b3aa644fac7cebcae3d820ca280686288763e0',
                                            'stdout': '5e05476e85c367f9516fbdd9b9b3aa644fac7cebcae3d820ca280686288763e0'}),
                           'envelope': (0,
                                        {'envelope.csv': '27013bcc46dfa5d2862ccd775bc7098447bc2c33e0c56f0c14dae1e120ba9b52',
                                         'envelope.json': '36cf80613cba99af56d63214d9c056bc6cdf5d0f14d13ed5ed3a8ecdd88f6110',
                                         'stdout': '36cf80613cba99af56d63214d9c056bc6cdf5d0f14d13ed5ed3a8ecdd88f6110'}),
                           'report': (0,
                                      {'metrics.json': '430a633b367bb34f45807b15be4dda75cbcb07a8345e0b71ce3b6141ddaa3a67',
                                       'stdout': '430a633b367bb34f45807b15be4dda75cbcb07a8345e0b71ce3b6141ddaa3a67'}),
                           'report-adapt': (0,
                                            {'metrics.json': 'b9f5ae3d022362c6c294212473c191722b146988ca992a0dd67dd4dbf37835fc',
                                             'stdout': 'b9f5ae3d022362c6c294212473c191722b146988ca992a0dd67dd4dbf37835fc'}),
                           'schedule': (0,
                                        {'mapping.json': '1b20745945158866d3c48a5101b4ac7577da7520881ba5f99f92d4607bd4da71',
                                         'stdout': '1b20745945158866d3c48a5101b4ac7577da7520881ba5f99f92d4607bd4da71'}),
                           'simulate': (0,
                                        {'metrics.json': '215c83105bb873db664d95804c32dc63bb818caa462224ebfd3df4d7183f2d3e',
                                         'stdout': '215c83105bb873db664d95804c32dc63bb818caa462224ebfd3df4d7183f2d3e',
                                         'trace.jsonl': 'b301bbfe7ff30c8793d536bc1762cf4664e921573c979d517cb64e6ff0806788'}),
                           'simulate-adapt': (0,
                                              {'metrics.json': '47e10d5243a48c8e6f14fde4492fd60c8f5482e489bddeb1e0809e4403e39899',
                                               'stdout': '47e10d5243a48c8e6f14fde4492fd60c8f5482e489bddeb1e0809e4403e39899',
                                               'trace.jsonl': 'd33c54e5ce9f380c03f0ca3ae2f44c1f9960944b804ecbd29cf7c8b7afbd6c79'})}}


GOLDEN_MULTIRATE = {'report': (0,
                               {'metrics.json': '61361af020587d06d8243e1accaef8445f3c6f456a31d08ee5dc07e3b3f96804',
                                'stdout': '61361af020587d06d8243e1accaef8445f3c6f456a31d08ee5dc07e3b3f96804'}),
                    'report-adapt': (0,
                                     {'metrics.json': '03c64fc73a76380e582cae5aa1fba5e78f6cc04fa902999abf97f54095494efd',
                                      'stdout': '03c64fc73a76380e582cae5aa1fba5e78f6cc04fa902999abf97f54095494efd'}),
                    'simulate': (3,
                                 {'metrics.json': '52684ee3e4e294f136baca55cca04a54d604b5718b958f1f918e60742415bf47',
                                  'stdout': '52684ee3e4e294f136baca55cca04a54d604b5718b958f1f918e60742415bf47',
                                  'trace.jsonl': '251926fe5d39ee960d83a4360fadca59edbe476b3c53de16dbbe2925de2b974b'}),
                    'simulate-adapt': (3,
                                       {'metrics.json': 'fcb843d10b92989de58764814b560e79c5803647d72769c20a3717dfbc308c6d',
                                        'stdout': 'fcb843d10b92989de58764814b560e79c5803647d72769c20a3717dfbc308c6d',
                                        'trace.jsonl': '3bd06bb0d30fc49a0e0c7f9a721dff25b4d03d9dfae660386b6297d87b0fa74b'})}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_cli_outputs_match_golden_digests(name, tmp_path):
    assert _digests(_fixture_runs(name, str(tmp_path)), str(tmp_path)) == GOLDEN[name]


def test_multirate_simulation_matches_golden_digests(tmp_path):
    assert _digests(_multirate_runs(str(tmp_path)), str(tmp_path)) == GOLDEN_MULTIRATE
    # the pin covers what it was built for: misses, and jobs cut off by the end
    with open(tmp_path / "simulate" / "trace.jsonl", encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh]
    started = {e["detail"]["job"] for e in events if e["kind"] == "start"}
    finished = {e["detail"]["job"] for e in events if e["kind"] == "finish"}
    assert any(e["kind"] == "miss" for e in events)
    assert started - finished


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(
            {n: _digests(_fixture_runs(n, os.path.join(tmp, n)), os.path.join(tmp, n)) for n in sorted(FIXTURES)},
            sys.stdout,
            width=120,
        )
        pprint.pprint(_digests(_multirate_runs(tmp), tmp), sys.stdout, width=120)
