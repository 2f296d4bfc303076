import math

import pytest

from ehsim.app import (
    ActivityProfile, AppError, AppSpec, AppState, PHASES, PHASE_BOOT,
    PHASE_COMM, PHASE_IDLE, PHASE_OFF, PHASE_SAMPLING, PHASE_BACKUP, app_step,
    apply_frequency_scaling, preset, time_to_transition,
)


def simple_spec(**kw):
    base = dict(t_sample_period=20.0, t_sample=1.0, t_comm=0.5, n_per_comm=1,
                bytes_per_comm=12, p_sample=2e-3, p_comm=3e-3, p_idle=1e-4,
                t_boot=0.05, name="t")
    base.update(kw)
    return AppSpec(**base)


def drive(spec, state, duration, power_good=True, v=3.3, pending_fn=None):
    """Advance the machine respecting its own transition times."""
    t = 0.0
    labels = []
    total_bytes = 0
    while t < duration - 1e-12:
        pend = pending_fn(t) if pending_fn else False
        dt = min(time_to_transition(spec, state, power_good), 0.1,
                 duration - t)
        dt = max(dt, 1e-6)
        state, p, label, b = app_step(spec, state, power_good, v, pend, dt)
        labels.append((t, t + dt, label, p))
        total_bytes += b
        t += dt
    return state, labels, total_bytes


def test_schedulability_invariant():
    with pytest.raises(AppError):
        AppSpec(t_sample_period=1.0, t_sample=0.8, t_comm=0.4)


def test_power_loss_forces_off_from_any_phase():
    spec = simple_spec()
    for phase in (PHASE_BOOT, PHASE_IDLE, PHASE_SAMPLING, PHASE_COMM):
        state = AppState(phase=phase, phase_t_remaining=0.5, t_until_sample=5.0)
        state, p, label, _ = app_step(spec, state, False, 3.3, False, 0.01)
        assert state.phase == PHASE_OFF
        assert label == PHASE_OFF
        assert p == spec.p_off_residual


def test_comm_follows_every_sample_when_n_is_one():
    spec = simple_spec()
    state, labels, total = drive(spec, AppState(), 60.0)
    seq = [l for _, _, l, _ in labels]
    # every sampling run is eventually followed by a communication
    for k, lab in enumerate(seq[:-1]):
        if lab == PHASE_SAMPLING and seq[k + 1] != PHASE_SAMPLING:
            assert seq[k + 1] == PHASE_COMM
    assert total == 3 * 12  # samples at boot, +20s, +40s


def test_one_hour_byte_count_matches_period_oracle():
    spec = preset("TMP1")
    state, _, total = drive(spec, AppState(), 3600.0)
    assert total == (3600 // 20) * 12 == 2160


def test_sampling_anchored_at_boot_completion():
    spec = simple_spec()
    state, labels, _ = drive(spec, AppState(), 2.0)
    # boot for t_boot, then the first sampling burst immediately
    assert labels[0][2] == PHASE_BOOT
    first_sampling = next(l for l in labels if l[2] == PHASE_SAMPLING)
    assert first_sampling[0] == pytest.approx(spec.t_boot, abs=1e-9)


def test_frequency_scaling_identity_and_value():
    spec = preset("TOF")
    assert apply_frequency_scaling(spec, 1.0) == spec
    scaled = apply_frequency_scaling(spec, 12.3)
    assert scaled.t_sample_period == pytest.approx(120.0 / 12.3)
    assert scaled.t_sample == spec.t_sample  # program structure unmodified


def test_frequency_scaling_bound():
    spec = simple_spec()  # bound = 20 / 1.5
    bound = spec.t_sample_period / (spec.t_sample + spec.t_comm)
    apply_frequency_scaling(spec, bound)  # exactly at the bound is fine
    with pytest.raises(AppError):
        apply_frequency_scaling(spec, bound * 1.01)


def test_checkpoint_once_per_powered_period():
    spec = simple_spec(checkpoint_v=1.7)
    state = AppState()
    state, labels, _ = drive(spec, state, 30.0, v=1.5)
    backups = [l for l in labels if l[2] == PHASE_BACKUP]
    assert len(backups) == 1
    assert state.checkpointed
    # backup energy equals the configured budget
    assert sum((b - a) * p for a, b, _, p in backups) == pytest.approx(
        spec.e_backup, rel=1e-6)


def test_no_checkpoint_above_threshold():
    spec = simple_spec(checkpoint_v=1.7)
    _, labels, _ = drive(spec, AppState(), 30.0, v=2.5)
    assert not any(l[2] == PHASE_BACKUP for l in labels)


def test_state_survives_power_loss_only_with_checkpoint():
    spec = simple_spec(n_per_comm=5)
    state = AppState(phase=PHASE_IDLE, t_until_sample=5.0,
                     samples_since_comm=3, checkpointed=False)
    state, _, _, _ = app_step(spec, state, False, 3.3, False, 0.01)
    assert state.samples_since_comm == 0
    state = AppState(phase=PHASE_IDLE, t_until_sample=5.0,
                     samples_since_comm=3, checkpointed=True)
    state, _, _, _ = app_step(spec, state, False, 3.3, False, 0.01)
    assert state.samples_since_comm == 3


def test_reactive_event_observed_after_sampling():
    spec = simple_spec(reactive=True, event_bytes=7, n_per_comm=10 ** 6)
    # level-triggered pending flag raised during the first sampling burst only
    state, labels, total = drive(spec, AppState(), 25.0,
                                 pending_fn=lambda t: 0.2 <= t < 2.0)
    assert total == 7  # one event communication completed
    assert state.events_detected == 1


def test_throughput_proportional_to_runtime():
    spec = simple_spec()
    _, _, b1 = drive(spec, AppState(), 400.0)
    _, _, b2 = drive(spec, AppState(), 1600.0)
    per_period = spec.bytes_per_comm
    expect1 = 400.0 / spec.t_app_period * per_period
    expect2 = 1600.0 / spec.t_app_period * per_period
    assert abs(b1 - expect1) <= per_period
    assert abs(b2 - expect2) <= per_period


def test_presets_available():
    for name in ("TMP1", "TMP2", "IMU", "PMS", "TOF", "BIO", "PARKING"):
        spec = preset(name)
        assert spec.t_active < spec.t_app_period
    with pytest.raises(AppError):
        preset("NOPE")


@pytest.mark.parametrize("name", [
    "t_sample_period", "t_sample", "t_comm", "n_per_comm", "bytes_per_comm",
    "p_sample", "p_comm", "p_idle", "p_off_residual", "t_boot", "p_boot",
    "t_backup", "e_backup", "checkpoint_v", "event_bytes",
    "sensor_fraction_sampling"])
def test_nan_app_parameters_are_rejected(name):
    with pytest.raises(AppError):
        simple_spec(**{name: math.nan})


@pytest.mark.parametrize("step_len", [math.nan, math.inf, 0.0, -0.2])
def test_activity_profile_rejects_a_bad_step_len(step_len):
    with pytest.raises(AppError, match="step_len"):
        ActivityProfile(step_len=step_len, on_off=[True], labels=[0])
