//! The device registry: every known device's [`DeviceMachine`], the
//! audit log of transitions, and a JSON round-trip so the registry can
//! be persisted by the CLI and exposed on the admin plane.
//!
//! [`Registry`] itself is pure and single-threaded (the caller
//! supplies logical time); [`FleetPlane`] wraps it in a lock plus a
//! logical clock so it can be shared between a rap-serve round hook,
//! the challenge scheduler, and the admin plane.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rap_obs::Json;
use rap_serve::{AdminExtra, RoundEvent, RoundHook};

use crate::state::{Cause, DeviceMachine, DeviceState, Event, Policy, Transition};

/// One entry of the registry's audit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionRecord {
    /// Which device transitioned.
    pub device: String,
    /// The transition itself (logical time, from, to, cause).
    pub transition: Transition,
    /// Short hash of the sealed [`VerdictRecord`](rap_track::VerdictRecord)
    /// whose verdict triggered the transition, when one did — the join
    /// key into the audit log. Time-driven transitions (decay, TTL)
    /// have none.
    pub evidence: Option<String>,
}

impl TransitionRecord {
    /// One-line rendering, stable across runs from the same seed —
    /// the fleet tests assert on this byte-for-byte. Evidence-carrying
    /// transitions append ` rec=<short-hash>` so the line can be
    /// joined against `rap audit show`.
    pub fn render(&self) -> String {
        let mut line = format!(
            "t={}ms {} {} -> {} ({})",
            self.transition.at_ms,
            self.device,
            self.transition.from,
            self.transition.to,
            self.transition.cause
        );
        if let Some(rec) = &self.evidence {
            line.push_str(&format!(" rec={rec}"));
        }
        line
    }
}

/// All registered devices plus the transition audit log.
#[derive(Debug, Clone)]
pub struct Registry {
    policy: Policy,
    devices: BTreeMap<String, DeviceMachine>,
    transitions: Vec<TransitionRecord>,
}

/// An error loading a registry from JSON.
#[derive(Debug)]
pub struct RegistryParseError(pub String);

impl std::fmt::Display for RegistryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "registry JSON: {}", self.0)
    }
}

impl std::error::Error for RegistryParseError {}

impl Registry {
    /// An empty registry under `policy`.
    pub fn new(policy: Policy) -> Registry {
        Registry {
            policy: policy.sanitized(),
            devices: BTreeMap::new(),
            transitions: Vec::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Registers `device` (Healthy) if unknown; returns its machine.
    pub fn register(&mut self, device: &str, now_ms: u64) -> &mut DeviceMachine {
        self.devices
            .entry(device.to_string())
            .or_insert_with(|| DeviceMachine::new(now_ms))
    }

    /// Looks up a device.
    pub fn device(&self, device: &str) -> Option<&DeviceMachine> {
        self.devices.get(device)
    }

    /// All devices, name-ordered (BTreeMap iteration is sorted, so
    /// every walk over the fleet is deterministic).
    pub fn devices(&self) -> impl Iterator<Item = (&String, &DeviceMachine)> {
        self.devices.iter()
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when no device is registered.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The audit log, in the order transitions fired.
    pub fn transitions(&self) -> &[TransitionRecord] {
        &self.transitions
    }

    /// The audit log rendered one line per transition.
    pub fn render_transitions(&self) -> String {
        let mut out = String::new();
        for r in &self.transitions {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }

    /// Feeds one observation for `device` at logical `now_ms`,
    /// auto-registering unknown devices. Time-driven rules (decay,
    /// quarantine TTL) are applied first, so a single call is enough
    /// per scheduled round. Returns the transitions that fired (0–2:
    /// a tick transition and/or an event transition).
    pub fn observe(&mut self, device: &str, now_ms: u64, event: Event) -> Vec<Transition> {
        self.observe_with_evidence(device, now_ms, event, None)
    }

    /// [`observe`](Registry::observe), citing the sealed verdict record
    /// (by short hash) that carried the event. The evidence lands on
    /// the *event-driven* transition only — a time-driven (tick)
    /// transition firing in the same call was not caused by this
    /// verdict and stays unattributed.
    pub fn observe_with_evidence(
        &mut self,
        device: &str,
        now_ms: u64,
        event: Event,
        evidence: Option<&str>,
    ) -> Vec<Transition> {
        let policy = self.policy.clone();
        let machine = self.register(device, now_ms);
        let mut fired = Vec::new();
        if let Some(t) = machine.tick(&policy, now_ms) {
            fired.push((t, None));
        }
        if let Some(t) = machine.apply(&policy, now_ms, event) {
            fired.push((t, evidence));
        }
        for (t, rec) in &fired {
            self.transitions.push(TransitionRecord {
                device: device.to_string(),
                transition: *t,
                evidence: rec.map(str::to_string),
            });
        }
        fired.into_iter().map(|(t, _)| t).collect()
    }

    /// Applies time-driven rules to every device at `now_ms` (the
    /// scheduler calls this each tick so quarantine TTLs expire even
    /// for devices that are not being challenged).
    pub fn tick_all(&mut self, now_ms: u64) -> Vec<TransitionRecord> {
        let policy = self.policy.clone();
        let mut fired = Vec::new();
        for (name, machine) in self.devices.iter_mut() {
            if let Some(t) = machine.tick(&policy, now_ms) {
                fired.push(TransitionRecord {
                    device: name.clone(),
                    transition: t,
                    evidence: None,
                });
            }
        }
        self.transitions.extend(fired.iter().cloned());
        fired
    }

    /// Device counts per state, indexed Healthy, Suspect, Quarantined,
    /// Reprovisioning.
    pub fn state_counts(&self) -> [u64; 4] {
        let mut counts = [0u64; 4];
        for m in self.devices.values() {
            let idx = match m.state() {
                DeviceState::Healthy => 0,
                DeviceState::Suspect => 1,
                DeviceState::Quarantined => 2,
                DeviceState::Reprovisioning => 3,
            };
            counts[idx] += 1;
        }
        counts
    }

    /// Serializes policy, devices, counts, and the audit log.
    pub fn to_json(&self) -> Json {
        let p = &self.policy;
        let counts = self.state_counts();
        Json::obj([
            (
                "policy",
                Json::obj([
                    ("suspect_after", Json::Uint(u64::from(p.suspect_after))),
                    (
                        "quarantine_after",
                        Json::Uint(u64::from(p.quarantine_after)),
                    ),
                    ("heal_accepts", Json::Uint(u64::from(p.heal_accepts))),
                    (
                        "timeout_suspect_after",
                        Json::Uint(u64::from(p.timeout_suspect_after)),
                    ),
                    ("reject_decay_ms", Json::Uint(p.reject_decay_ms)),
                    ("quarantine_ttl_ms", Json::Uint(p.quarantine_ttl_ms)),
                    (
                        "reprovision_backoff_ms",
                        Json::Uint(p.reprovision_backoff_ms),
                    ),
                    ("backoff_cap_ms", Json::Uint(p.backoff_cap_ms)),
                    ("round_interval_ms", Json::Uint(p.round_interval_ms)),
                    (
                        "quarantine_throttle",
                        Json::Uint(u64::from(p.quarantine_throttle)),
                    ),
                ]),
            ),
            (
                "counts",
                Json::obj([
                    ("healthy", Json::Uint(counts[0])),
                    ("suspect", Json::Uint(counts[1])),
                    ("quarantined", Json::Uint(counts[2])),
                    ("reprovisioning", Json::Uint(counts[3])),
                ]),
            ),
            (
                "devices",
                Json::Obj(
                    self.devices
                        .iter()
                        .map(|(name, m)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("state", Json::Str(m.state().as_str().to_string())),
                                    ("since_ms", Json::Uint(m.state_since_ms())),
                                    ("rounds", Json::Uint(m.rounds)),
                                    ("rejects", Json::Uint(m.rejects)),
                                    ("timeouts", Json::Uint(m.timeouts)),
                                    ("gated", Json::Uint(m.gated)),
                                    (
                                        "quarantine_count",
                                        Json::Uint(u64::from(m.quarantine_count)),
                                    ),
                                    ("gate_until_ms", Json::Uint(m.gate_until_ms())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "transitions",
                Json::Arr(
                    self.transitions
                        .iter()
                        .map(|r| {
                            let mut fields = vec![
                                ("device".to_string(), Json::Str(r.device.clone())),
                                ("at_ms".to_string(), Json::Uint(r.transition.at_ms)),
                                (
                                    "from".to_string(),
                                    Json::Str(r.transition.from.as_str().to_string()),
                                ),
                                (
                                    "to".to_string(),
                                    Json::Str(r.transition.to.as_str().to_string()),
                                ),
                                (
                                    "cause".to_string(),
                                    Json::Str(r.transition.cause.as_str().to_string()),
                                ),
                            ];
                            // Optional so registries persisted before
                            // evidence existed round-trip byte-identically.
                            if let Some(rec) = &r.evidence {
                                fields.push(("rec".to_string(), Json::Str(rec.clone())));
                            }
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Inverse of [`Registry::to_json`] — used by `rap fleet
    /// status`/`quarantine`/`heal` to operate on a persisted registry.
    pub fn from_json(json: &Json) -> Result<Registry, RegistryParseError> {
        let missing = |what: &str| RegistryParseError(format!("missing {what}"));
        let pj = json.get("policy").ok_or_else(|| missing("policy"))?;
        let pu = |key: &str| -> Result<u64, RegistryParseError> {
            pj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| RegistryParseError(format!("missing or non-numeric policy.{key}")))
        };
        let policy = Policy {
            suspect_after: pu("suspect_after")? as u32,
            quarantine_after: pu("quarantine_after")? as u32,
            heal_accepts: pu("heal_accepts")? as u32,
            timeout_suspect_after: pu("timeout_suspect_after")? as u32,
            reject_decay_ms: pu("reject_decay_ms")?,
            quarantine_ttl_ms: pu("quarantine_ttl_ms")?,
            reprovision_backoff_ms: pu("reprovision_backoff_ms")?,
            backoff_cap_ms: pu("backoff_cap_ms")?,
            round_interval_ms: pu("round_interval_ms")?,
            quarantine_throttle: pu("quarantine_throttle")? as u32,
        };
        let mut registry = Registry::new(policy);
        let devices = json
            .get("devices")
            .and_then(Json::entries)
            .ok_or_else(|| missing("devices"))?;
        for (name, d) in devices {
            let du = |key: &str| -> Result<u64, RegistryParseError> {
                d.get(key).and_then(Json::as_u64).ok_or_else(|| {
                    RegistryParseError(format!("device {name}: missing or non-numeric {key}"))
                })
            };
            let state = d
                .get("state")
                .and_then(Json::as_str)
                .and_then(DeviceState::parse)
                .ok_or_else(|| RegistryParseError(format!("device {name}: bad state")))?;
            let machine = DeviceMachine::restore(
                state,
                du("since_ms")?,
                du("quarantine_count")? as u32,
                du("rounds")?,
                du("rejects")?,
                du("timeouts")?,
                du("gated")?,
                du("gate_until_ms")?,
            );
            registry.devices.insert(name.clone(), machine);
        }
        let transitions = json
            .get("transitions")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("transitions"))?;
        for t in transitions {
            let device = t
                .get("device")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("transition device"))?
                .to_string();
            let state_of = |key: &str| -> Result<DeviceState, RegistryParseError> {
                t.get(key)
                    .and_then(Json::as_str)
                    .and_then(DeviceState::parse)
                    .ok_or_else(|| RegistryParseError(format!("transition: bad {key}")))
            };
            registry.transitions.push(TransitionRecord {
                device,
                transition: Transition {
                    at_ms: t
                        .get("at_ms")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| missing("transition at_ms"))?,
                    from: state_of("from")?,
                    to: state_of("to")?,
                    cause: t
                        .get("cause")
                        .and_then(Json::as_str)
                        .and_then(Cause::parse)
                        .ok_or_else(|| missing("transition cause"))?,
                },
                evidence: t.get("rec").and_then(Json::as_str).map(str::to_string),
            });
        }
        Ok(registry)
    }
}

/// Updates the fleet state gauges from `counts` (same order as
/// [`Registry::state_counts`]).
fn publish_state_gauges(counts: [u64; 4]) {
    rap_obs::gauge!("fleet_devices_healthy").set(counts[0] as i64);
    rap_obs::gauge!("fleet_devices_suspect").set(counts[1] as i64);
    rap_obs::gauge!("fleet_devices_quarantined").set(counts[2] as i64);
    rap_obs::gauge!("fleet_devices_reprovisioning").set(counts[3] as i64);
}

/// The shared control plane: a locked [`Registry`] plus a logical
/// clock, with adapters for rap-serve's [`RoundHook`] and
/// [`AdminExtra`] hooks and rap-obs counters/gauges published on every
/// observation.
#[derive(Clone)]
pub struct FleetPlane {
    inner: Arc<FleetPlaneInner>,
}

struct FleetPlaneInner {
    registry: Mutex<Registry>,
    /// Logical milliseconds; the driver (scheduler or simulation)
    /// advances this, everything else only reads it.
    now_ms: AtomicU64,
}

impl FleetPlane {
    /// A fresh plane at logical time 0.
    pub fn new(policy: Policy) -> FleetPlane {
        FleetPlane {
            inner: Arc::new(FleetPlaneInner {
                registry: Mutex::new(Registry::new(policy)),
                now_ms: AtomicU64::new(0),
            }),
        }
    }

    /// Current logical time.
    pub fn now_ms(&self) -> u64 {
        self.inner.now_ms.load(Ordering::Acquire)
    }

    /// Advances the logical clock (monotone: going backwards is a
    /// no-op so racing drivers cannot rewind time).
    pub fn set_now_ms(&self, now_ms: u64) {
        self.inner.now_ms.fetch_max(now_ms, Ordering::AcqRel);
    }

    /// Registers a device (idempotent).
    pub fn register(&self, device: &str) {
        let now = self.now_ms();
        let mut reg = self.inner.registry.lock().unwrap();
        reg.register(device, now);
        publish_state_gauges(reg.state_counts());
    }

    /// Feeds one observation at the current logical time, publishing
    /// metrics. Returns the transitions that fired.
    pub fn observe(&self, device: &str, event: Event) -> Vec<Transition> {
        self.observe_with_evidence(device, event, None)
    }

    /// [`observe`](FleetPlane::observe), citing the sealed verdict
    /// record (by short hash) that carried the event — see
    /// [`Registry::observe_with_evidence`].
    pub fn observe_with_evidence(
        &self,
        device: &str,
        event: Event,
        evidence: Option<&str>,
    ) -> Vec<Transition> {
        let now = self.now_ms();
        let mut reg = self.inner.registry.lock().unwrap();
        let was_quarantined =
            reg.device(device).map(DeviceMachine::state) == Some(DeviceState::Quarantined);
        let fired = reg.observe_with_evidence(device, now, event, evidence);
        match event {
            Event::Accepted | Event::Rejected => {
                rap_obs::counter!("fleet_verdicts_total").inc();
                if was_quarantined {
                    rap_obs::counter!("fleet_verdicts_gated_total").inc();
                }
            }
            Event::Timeout => rap_obs::counter!("fleet_timeouts_total").inc(),
            Event::AdminQuarantine | Event::AdminHeal => {
                rap_obs::counter!("fleet_admin_commands_total").inc()
            }
        }
        rap_obs::counter!("fleet_transitions_total").add(fired.len() as u64);
        publish_state_gauges(reg.state_counts());
        fired
    }

    /// Applies time-driven rules fleet-wide at the current logical
    /// time.
    pub fn tick_all(&self) -> Vec<TransitionRecord> {
        let now = self.now_ms();
        let mut reg = self.inner.registry.lock().unwrap();
        let fired = reg.tick_all(now);
        rap_obs::counter!("fleet_transitions_total").add(fired.len() as u64);
        publish_state_gauges(reg.state_counts());
        fired
    }

    /// Runs `f` under the registry lock (snapshots, assertions).
    pub fn with_registry<R>(&self, f: impl FnOnce(&Registry) -> R) -> R {
        f(&self.inner.registry.lock().unwrap())
    }

    /// The registry serialized, for the admin plane and CLI.
    pub fn to_json(&self) -> Json {
        self.inner.registry.lock().unwrap().to_json()
    }

    /// A [`RoundHook`] for [`rap_serve::ServerConfig::round_hook`] —
    /// every verified round flows into this plane, and transitions it
    /// fires cite the sealed record's short hash as evidence (the join
    /// key into the audit log).
    pub fn round_hook(&self) -> RoundHook {
        let plane = self.clone();
        RoundHook::new(move |round| {
            // RoundEvent is non_exhaustive; future event kinds are not
            // verdicts and do not feed the state machine.
            if let RoundEvent::Verdict { device, record } = round {
                let event = if record.accepted() {
                    Event::Accepted
                } else {
                    Event::Rejected
                };
                plane.observe_with_evidence(device, event, Some(&record.short_hash()));
            }
        })
    }

    /// An [`AdminExtra`] exposing this plane as a top-level `"fleet"`
    /// section of the admin STATS JSON.
    pub fn admin_extra(&self) -> AdminExtra {
        let plane = self.clone();
        AdminExtra::new(move || vec![("fleet".to_string(), plane.to_json())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_preserves_states_and_log() {
        let mut reg = Registry::new(Policy::default());
        reg.observe("dev-a", 10, Event::Rejected);
        reg.observe("dev-a", 20, Event::Rejected);
        reg.observe("dev-a", 30, Event::Rejected);
        reg.observe("dev-b", 30, Event::Accepted);
        assert_eq!(
            reg.device("dev-a").unwrap().state(),
            DeviceState::Quarantined
        );
        let json = reg.to_json();
        let back = Registry::from_json(&json).expect("parses");
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.device("dev-a").unwrap().state(),
            DeviceState::Quarantined
        );
        assert_eq!(back.device("dev-b").unwrap().state(), DeviceState::Healthy);
        assert_eq!(back.transitions().len(), reg.transitions().len());
        assert_eq!(back.to_json().to_compact(), json.to_compact());
    }

    #[test]
    fn observe_auto_registers_and_logs() {
        let mut reg = Registry::new(Policy::default());
        let fired = reg.observe("dev-x", 5, Event::Rejected);
        assert_eq!(fired.len(), 1);
        assert_eq!(
            reg.render_transitions(),
            "t=5ms dev-x healthy -> suspect (reject-streak)\n"
        );
    }

    #[test]
    fn plane_clock_is_monotone() {
        let plane = FleetPlane::new(Policy::default());
        plane.set_now_ms(100);
        plane.set_now_ms(50);
        assert_eq!(plane.now_ms(), 100);
    }
}
