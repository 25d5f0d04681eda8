import hashlib
import json

import pytest

from workloads import bigger, dense, large, plan, random_probe, scale_probe, summary

# sha256 of the random probe's first 500 plans, each dumped as its name and
# its whole `to_json()` with sorted keys. The probe's row pins paths only;
# this also pins windows, notes and statuses. 240 of these instances release
# a robot late.
RANDOM_PROBE_500_JSON_SHA256 = "79cb8b235e64e044d21d5e9ed30506e7a3e55629dd74c4bec69e73bc2116e2f6"


@pytest.fixture(scope="module")
def dense_plans():
    """Every instance of both dense draws with its result and the checker's
    findings on it."""
    return [(inst, *plan(inst)) for draw in (0, 1) for inst in dense(draw)]


def test_the_dense_set_plans_at_least_36_of_48_and_every_plan_passes_the_checker(dense_plans):
    assert len(dense_plans) == 48
    assert [inst.name for inst, _, _ in dense_plans[:8]] == [
        "open8x4#0", "block8x4#1", "open8x6#2", "block8x6#3",
        "open8x8#4", "block8x8#5", "open8x12#6", "block8x12#7"]
    for inst, _, errors in dense_plans:
        assert errors == [], inst.name
    assert sum(result.succeeded for _, result, _ in dense_plans) >= 36


def test_no_dense_window_takes_more_than_two_tries(dense_plans):
    # The bounded try and the first-reach try; `retries` counts the failed
    # tries before the last one, and no try widens the window.
    windows = [w for _, result, _ in dense_plans for w in result.windows]
    assert max(w.retries for w in windows) == 1
    assert not any(w.escalated for w in windows)


@pytest.mark.parametrize("instances, count", [(large, 8), (bigger, 4)])
def test_the_large_and_bigger_sets_plan_every_instance_and_pass_the_checker(instances, count):
    planned = [(inst, *plan(inst)) for inst in instances()]
    assert len(planned) == count
    for inst, result, errors in planned:
        assert result.succeeded, inst.name
        assert errors == [], inst.name


@pytest.mark.parametrize("instances, row", [
    (scale_probe, {"instances": 4, "plans": 4, "moves": 6645, "windows": 50, "tries": 55,
                   "failed_try": 5, "annealed": 0, "paths": "c741a25aa464"}),
    (random_probe, {"instances": 3000, "plans": 2384, "moves": 20965, "windows": 8717,
                    "tries": 9369, "failed_try": 652, "annealed": 0, "paths": "22ea685b4b9d"}),
])
def test_the_probes_keep_their_rows(instances, row):
    # The scale probe's wide windows take the lazy elimination rounds, and
    # no other test plans either probe: every path is pinned by its hash.
    got = summary(instances())
    del got["seconds"]
    assert got == row


def test_dense_draw_1_keeps_its_annealed_reads():
    # The one set of this module whose windows are annealed: its three
    # annealed solves draw from the seed `solve` derives from each window's
    # seed parts, and every path is pinned by its hash.
    got = summary(dense(1))
    del got["seconds"]
    assert got == {"instances": 24, "plans": 17, "moves": 976, "windows": 54, "tries": 69,
                   "failed_try": 15, "annealed": 3, "paths": "b6e57b7c9a44"}


def test_the_random_probes_first_500_plans_keep_their_json():
    digest = hashlib.sha256()
    for inst in random_probe()[:500]:
        result, _ = plan(inst)
        digest.update(json.dumps([inst.name, result.to_json()], sort_keys=True).encode())
    assert digest.hexdigest() == RANDOM_PROBE_500_JSON_SHA256
