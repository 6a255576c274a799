//! The wire between the D-M2TD driver and its workers.
//!
//! Everything that crosses the wire is a [`TaskEnvelope`] — an
//! `m2td-json` document carrying the task identity (job, phase, kind,
//! task id, attempt) plus an opaque serialized payload, sealed with the
//! same FNV-1a-64 checksum the checkpoint-v2 store uses. The checksum
//! covers the *whole* envelope (identity and payload), so a bit-flip or
//! truncation anywhere in flight is detected on receive, counted in
//! `xport.corrupt_dropped`, and surfaces as a [`TransportError`] the
//! scheduler retries — corrupt bytes are never deserialized into the
//! pipeline.
//!
//! An engine routes tasks one of two ways ([`TransportKind`]):
//!
//! * **direct** — tasks run by plain function call; nothing is
//!   serialized; and
//! * **channel** — [`ChannelTransport`] serializes every envelope, pushes
//!   the bytes through an in-process `std::sync::mpsc` channel hop,
//!   optionally injects deterministic wire corruption from the
//!   [`FaultPlan`] wire stream, and re-parses on the far side.
//!
//! Nothing crosses the channel except bytes, so the channel transport
//! exercises the same encode → damage → decode path a socket would.

use crate::checkpoint::fnv1a64;
use m2td_fault::{CorruptionKind, FaultPlan, TaskKind};
use m2td_json::{Json, ToJson};
use std::fmt;

/// Which transport implementation an engine routes its tasks through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Tasks are executed by direct function call; nothing is serialized.
    #[default]
    Direct,
    /// Tasks and results cross an in-process channel as serialized
    /// envelopes (checksummed, corruptible, retryable).
    Channel,
}

impl TransportKind {
    /// Reads `M2TD_TRANSPORT` (`direct` | `channel`); unset or
    /// unrecognized values fall back to [`TransportKind::Direct`].
    pub fn from_env() -> Self {
        match std::env::var("M2TD_TRANSPORT").as_deref() {
            Ok("channel") => TransportKind::Channel,
            _ => TransportKind::Direct,
        }
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "direct" => Ok(TransportKind::Direct),
            "channel" => Ok(TransportKind::Channel),
            other => Err(format!(
                "unknown transport '{other}' (expected direct | channel)"
            )),
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportKind::Direct => write!(f, "direct"),
            TransportKind::Channel => write!(f, "channel"),
        }
    }
}

/// Why a delivery failed. Both variants are *retryable*: the sender still
/// holds the task and can re-dispatch a fresh attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The received bytes did not parse as an envelope (torn write,
    /// truncation, or a structural bit-flip).
    Malformed(String),
    /// The envelope parsed but its checksum did not match its contents.
    ChecksumMismatch {
        /// Checksum the envelope claimed.
        stored: u64,
        /// Checksum recomputed from the received contents.
        computed: u64,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Malformed(why) => write!(f, "malformed envelope: {why}"),
            TransportError::ChecksumMismatch { stored, computed } => write!(
                f,
                "envelope checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

/// Parses the `kind` field of an envelope back into a [`TaskKind`].
fn parse_kind(s: &str) -> Option<TaskKind> {
    match s {
        "map" => Some(TaskKind::Map),
        "reduce" => Some(TaskKind::Reduce),
        "simulation" => Some(TaskKind::Simulation),
        _ => None,
    }
}

/// One unit of work (or one result) in transit: task identity plus an
/// opaque serialized payload, sealed under an FNV-1a-64 checksum.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskEnvelope {
    /// Job the task belongs to (D-M2TD uses one job id per phase).
    pub job: u64,
    /// D-M2TD phase number (1–3), for DLQ forensics.
    pub phase: u8,
    /// Map / reduce / simulation.
    pub kind: TaskKind,
    /// Task index within the job.
    pub task: u64,
    /// Attempt number this envelope was dispatched for.
    pub attempt: u32,
    /// FNV-1a-64 over a canonical `job/phase/kind/task/attempt/` header
    /// followed by the payload bytes.
    pub checksum: u64,
    /// The serialized task input or output.
    pub payload: String,
}

impl TaskEnvelope {
    /// Seals a new envelope around `payload`.
    pub fn new(
        job: u64,
        phase: u8,
        kind: TaskKind,
        task: u64,
        attempt: u32,
        payload: String,
    ) -> Self {
        let checksum = Self::checksum_of(job, phase, kind, task, attempt, &payload);
        Self {
            job,
            phase,
            kind,
            task,
            attempt,
            checksum,
            payload,
        }
    }

    /// The envelope checksum: FNV-1a-64 over a canonical serialization of
    /// the identity fields followed by the payload bytes. Covering the
    /// identity too means a bit-flip in (say) the task id cannot slip
    /// through just because the payload survived.
    fn checksum_of(
        job: u64,
        phase: u8,
        kind: TaskKind,
        task: u64,
        attempt: u32,
        payload: &str,
    ) -> u64 {
        let header = format!("{job}/{phase}/{kind}/{task}/{attempt}/");
        fnv1a64(&[header.as_bytes(), payload.as_bytes()])
    }

    /// Serializes the envelope to compact JSON (the only form that ever
    /// crosses a transport).
    pub fn encode(&self) -> String {
        Json::Obj(vec![
            ("job".to_string(), self.job.to_json()),
            ("phase".to_string(), self.phase.to_json()),
            ("kind".to_string(), self.kind.to_string().to_json()),
            ("task".to_string(), self.task.to_json()),
            ("attempt".to_string(), self.attempt.to_json()),
            // Bit-cast through i64 like every other 64-bit hash on disk.
            ("checksum".to_string(), Json::Int(self.checksum as i64)),
            ("payload".to_string(), self.payload.to_json()),
        ])
        .to_compact()
    }

    /// Parses and *verifies* received bytes. Malformed documents and
    /// checksum mismatches are rejected — the caller retries the attempt,
    /// it never sees the damaged payload.
    pub fn decode(text: &str) -> Result<Self, TransportError> {
        let doc =
            Json::parse(text).map_err(|e| TransportError::Malformed(format!("parse: {e}")))?;
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| TransportError::Malformed(format!("missing field '{name}'")))
        };
        let as_u64 = |name: &str| {
            field(name)?
                .as_u64()
                .map_err(|e| TransportError::Malformed(format!("field '{name}': {e}")))
        };
        let job = as_u64("job")?;
        let phase = as_u64("phase")?;
        let phase = u8::try_from(phase)
            .map_err(|_| TransportError::Malformed(format!("phase {phase} out of range")))?;
        let kind = field("kind")?
            .as_str()
            .ok()
            .and_then(parse_kind)
            .ok_or_else(|| TransportError::Malformed("unrecognized task kind".to_string()))?;
        let task = as_u64("task")?;
        let attempt = as_u64("attempt")?;
        let attempt = u32::try_from(attempt)
            .map_err(|_| TransportError::Malformed(format!("attempt {attempt} out of range")))?;
        let checksum = match field("checksum")? {
            Json::Int(c) => *c as u64,
            other => {
                return Err(TransportError::Malformed(format!(
                    "checksum must be an integer, found {}",
                    other.type_name()
                )))
            }
        };
        let payload = field("payload")?
            .as_str()
            .map_err(|e| TransportError::Malformed(format!("field 'payload': {e}")))?
            .to_string();
        let computed = Self::checksum_of(job, phase, kind, task, attempt, &payload);
        if computed != checksum {
            return Err(TransportError::ChecksumMismatch {
                stored: checksum,
                computed,
            });
        }
        Ok(Self {
            job,
            phase,
            kind,
            task,
            attempt,
            checksum,
            payload,
        })
    }
}

/// In-process channel transport: every delivery serializes the envelope,
/// optionally damages the bytes per the [`FaultPlan`] wire stream, pushes
/// them through an `mpsc` channel hop, and re-parses with checksum
/// verification on the receiving side.
#[derive(Debug, Clone, Copy)]
pub struct ChannelTransport {
    plan: FaultPlan,
}

impl ChannelTransport {
    /// A channel transport injecting wire corruption from `plan` (use
    /// [`FaultPlan::none`] for a loss-free channel).
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }

    /// Delivers one envelope, returning it as the far side sees it.
    /// `leg` identifies the crossing within one attempt: `0` = task
    /// dispatch, `1` = result return — the wire-corruption stream draws
    /// independently per leg.
    pub fn deliver(
        &self,
        envelope: &TaskEnvelope,
        leg: u32,
    ) -> Result<TaskEnvelope, TransportError> {
        let mut text = envelope.encode();
        if let Some(kind) =
            self.plan
                .wire_corruption(envelope.job, envelope.task, envelope.attempt, leg)
        {
            text = Self::damage(text, kind);
        }
        // The channel hop: only bytes cross. A socket transport would
        // replace these two lines with a write + read.
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        tx.send(text).expect("receiver alive in scope");
        let received = rx.recv().expect("sender alive in scope");
        m2td_obs::counter_add("xport.envelopes", 1);
        m2td_obs::counter_add("xport.bytes", received.len() as u64);
        TaskEnvelope::decode(&received).inspect_err(|_| {
            m2td_obs::counter_add("xport.corrupt_dropped", 1);
        })
    }

    /// Applies one wire mutation to serialized envelope bytes.
    fn damage(text: String, kind: CorruptionKind) -> String {
        let mut bytes = text.into_bytes();
        match kind {
            CorruptionKind::BitFlip => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
            }
            // Stale-version corruption has no meaning on the wire;
            // envelopes carry no format version. Model it as a torn frame.
            CorruptionKind::Truncate | CorruptionKind::StaleVersion => {
                bytes.truncate(bytes.len() / 2);
            }
        }
        // The mutation may have broken UTF-8; replace invalid sequences
        // (the parser rejects the replacement character anyway).
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope() -> TaskEnvelope {
        TaskEnvelope::new(
            3,
            2,
            TaskKind::Reduce,
            17,
            1,
            "[[0,4,1.5],[1,9,-0.25]]".to_string(),
        )
    }

    #[test]
    fn envelope_round_trips_bitwise() {
        let env = envelope();
        let back = TaskEnvelope::decode(&env.encode()).unwrap();
        assert_eq!(back, env);
        // Payload floats survive textually (bitwise by the m2td-json
        // float contract).
        assert_eq!(back.payload, env.payload);
    }

    #[test]
    fn every_field_is_covered_by_the_checksum() {
        let env = envelope();
        let text = env.encode();
        // Flip one character in each field region and require detection.
        for (needle, replacement) in [
            ("\"job\":3", "\"job\":5"),
            ("\"phase\":2", "\"phase\":1"),
            ("\"kind\":\"reduce\"", "\"kind\":\"map\""),
            ("\"task\":17", "\"task\":16"),
            ("\"attempt\":1", "\"attempt\":2"),
            ("1.5", "1.25"),
        ] {
            let tampered = text.replacen(needle, replacement, 1);
            assert_ne!(tampered, text, "needle {needle:?} not found");
            assert!(
                matches!(
                    TaskEnvelope::decode(&tampered),
                    Err(TransportError::ChecksumMismatch { .. })
                ),
                "tampering {needle:?} went undetected"
            );
        }
    }

    #[test]
    fn malformed_envelopes_are_rejected() {
        for bad in ["", "{", "[1,2]", "{\"job\":1}", "not json at all"] {
            assert!(
                matches!(TaskEnvelope::decode(bad), Err(TransportError::Malformed(_))),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn clean_channel_agrees_with_direct() {
        // Direct delivery is the identity: a loss-free channel must hand
        // the far side exactly the envelope that was sent.
        let env = envelope();
        let channel = ChannelTransport::new(FaultPlan::none())
            .deliver(&env, 0)
            .unwrap();
        assert_eq!(channel, env);
    }

    #[test]
    fn wire_corruption_is_always_detected_never_passed_through() {
        let plan = FaultPlan {
            seed: 23,
            ..FaultPlan::none().with_xport_corrupt_rate(1.0)
        };
        let transport = ChannelTransport::new(plan);
        let mut rejected = 0;
        for task in 0..50u64 {
            let env = TaskEnvelope::new(1, 1, TaskKind::Map, task, 0, format!("[[{task},0,0.5]]"));
            match transport.deliver(&env, 0) {
                Err(_) => rejected += 1,
                Ok(received) => assert_eq!(received, env, "damaged envelope accepted"),
            }
        }
        assert_eq!(rejected, 50, "rate-1 wire stream must reject everything");
    }

    #[test]
    fn transport_kind_parses_and_reads_env() {
        assert_eq!("direct".parse::<TransportKind>(), Ok(TransportKind::Direct));
        assert_eq!(
            "channel".parse::<TransportKind>(),
            Ok(TransportKind::Channel)
        );
        assert!("tcp".parse::<TransportKind>().is_err());
        assert_eq!(TransportKind::Channel.to_string(), "channel");
    }

    #[test]
    fn both_damage_kinds_fail_decode() {
        let env = envelope();
        for kind in [CorruptionKind::BitFlip, CorruptionKind::Truncate] {
            let damaged = ChannelTransport::damage(env.encode(), kind);
            assert!(
                TaskEnvelope::decode(&damaged).is_err(),
                "{kind} survived decode"
            );
        }
    }
}
