//! The delta wire format: one JSON object per line.
//!
//! Three event kinds flow from any source (stdin, a replay file, the
//! generator) to the server:
//!
//! ```text
//! {"event":"delta","client":3,"volume":7}   // client 3 now issues 7 req/s
//! {"event":"epoch"}                         // re-solve and emit a diff
//! {"event":"stop"}                          // shut down (no final epoch)
//! ```
//!
//! `client` is the client index (`ClientId::from_index`), `volume` the
//! new absolute request rate — absolute, not relative, so a replayed
//! stream is idempotent per line and insensitive to lost history.
//! `volume` is at most `u32::MAX` (4294967295); a larger one is a
//! line-numbered error. Client handles are `u32` too, so even 2³²
//! clients at the ceiling sum below 2⁶⁴ and no demand total can wrap.
//! Unknown and repeated fields are rejected, not ignored: a replay file
//! that misspells `volume`, or sets it twice on one line, should fail
//! loudly, not serve stale demand.

use replica_tree::ClientId;
use serde::{de::Error as _, Deserialize, Deserializer, Serialize, Value};

/// One line of the serve stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeEvent {
    /// Set one client's absolute request volume.
    Delta {
        /// The client whose demand changes.
        client: ClientId,
        /// Its new absolute volume (at most `u32::MAX` on the wire).
        volume: u64,
    },
    /// Epoch mark: re-solve now and emit a placement diff.
    Epoch,
    /// End of stream: shut down without a further epoch.
    Stop,
}

impl ServeEvent {
    /// Renders the event as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("serve events always serialize")
    }

    /// Parses one line. `line_no` is 1-based, for error messages.
    pub fn parse(line: &str, line_no: usize) -> Result<ServeEvent, String> {
        let value: ServeEvent =
            serde_json::from_str(line).map_err(|e| format!("line {line_no}: {e}"))?;
        Ok(value)
    }
}

impl Serialize for ServeEvent {
    fn serialize(&self) -> Value {
        match self {
            ServeEvent::Delta { client, volume } => Value::Object(vec![
                ("event".into(), Value::Str("delta".into())),
                ("client".into(), Value::Int(client.index() as i128)),
                ("volume".into(), Value::Int(*volume as i128)),
            ]),
            ServeEvent::Epoch => Value::Object(vec![("event".into(), Value::Str("epoch".into()))]),
            ServeEvent::Stop => Value::Object(vec![("event".into(), Value::Str("stop".into()))]),
        }
    }
}

impl<'de> Deserialize<'de> for ServeEvent {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.take_value()?;
        let Value::Object(entries) = value else {
            return Err(D::Error::custom("serve event must be a JSON object"));
        };
        for (i, (key, _)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(seen, _)| seen == key) {
                return Err(D::Error::custom(format!(
                    "repeated serve event field \"{key}\""
                )));
            }
        }
        let mut kind: Option<String> = None;
        let mut client: Option<i128> = None;
        let mut volume: Option<i128> = None;
        for (key, value) in entries {
            match (key.as_str(), value) {
                ("event", Value::Str(s)) => kind = Some(s),
                ("event", other) => {
                    return Err(D::Error::custom(format!(
                        "\"event\" must be a string, got {other:?}"
                    )))
                }
                ("client", Value::Int(i)) => client = Some(i),
                ("volume", Value::Int(i)) => volume = Some(i),
                ("client" | "volume", other) => {
                    return Err(D::Error::custom(format!(
                        "\"{key}\" must be an unsigned integer, got {other:?}",
                        key = key
                    )))
                }
                (other, _) => {
                    return Err(D::Error::custom(format!(
                        "unknown serve event field \"{other}\""
                    )))
                }
            }
        }
        let kind = kind.ok_or_else(|| D::Error::custom("serve event is missing \"event\""))?;
        match kind.as_str() {
            "delta" => {
                let client =
                    client.ok_or_else(|| D::Error::custom("delta event is missing \"client\""))?;
                let volume =
                    volume.ok_or_else(|| D::Error::custom("delta event is missing \"volume\""))?;
                // Client handles are `u32`: anything wider is out of range
                // here, before `ClientId::from_index` could panic on it.
                let client = u32::try_from(client)
                    .map_err(|_| D::Error::custom(format!("client index {client} out of range")))?;
                // Volumes are capped at `u32::MAX`: with at most 2³²
                // clients, no sum of volumes can wrap a `u64`.
                let volume = u32::try_from(volume).map_err(|_| {
                    D::Error::custom(format!("volume {volume} out of range (max {})", u32::MAX))
                })?;
                Ok(ServeEvent::Delta {
                    client: ClientId::from_index(client as usize),
                    volume: u64::from(volume),
                })
            }
            "epoch" if client.is_none() && volume.is_none() => Ok(ServeEvent::Epoch),
            "stop" if client.is_none() && volume.is_none() => Ok(ServeEvent::Stop),
            "epoch" | "stop" => Err(D::Error::custom(format!(
                "\"{kind}\" events carry no client/volume fields"
            ))),
            other => Err(D::Error::custom(format!(
                "unknown serve event kind \"{other}\""
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_the_wire() {
        let events = [
            ServeEvent::Delta {
                client: ClientId::from_index(3),
                volume: 7,
            },
            ServeEvent::Delta {
                client: ClientId::from_index(0),
                volume: 0,
            },
            ServeEvent::Epoch,
            ServeEvent::Stop,
        ];
        for event in events {
            let line = event.to_json_line();
            let back = ServeEvent::parse(&line, 1).unwrap();
            assert_eq!(back, event, "wire {line}");
        }
        assert_eq!(
            ServeEvent::Epoch.to_json_line(),
            "{\"event\":\"epoch\"}",
            "the epoch mark is the documented literal"
        );
    }

    #[test]
    fn malformed_lines_fail_with_the_line_number() {
        for bad in [
            "",
            "epoch",
            "{\"event\":\"delta\",\"client\":1}",
            "{\"event\":\"delta\",\"volume\":1}",
            "{\"event\":\"delta\",\"client\":-1,\"volume\":1}",
            "{\"event\":\"delta\",\"client\":4294967296,\"volume\":1}",
            "{\"event\":\"delta\",\"client\":1,\"volume\":4294967296}",
            "{\"event\":\"resolve\"}",
            "{\"event\":\"epoch\",\"client\":1}",
            "{\"event\":\"delta\",\"client\":1,\"vol\":2}",
            "{\"event\":\"delta\",\"client\":1,\"volume\":2,\"volume\":3}",
            "[\"delta\",1,2]",
        ] {
            let err = ServeEvent::parse(bad, 42).unwrap_err();
            assert!(err.starts_with("line 42:"), "{bad:?} → {err}");
        }
        let repeated = "{\"event\":\"delta\",\"client\":1,\"volume\":2,\"volume\":3}";
        assert_eq!(
            ServeEvent::parse(repeated, 5).unwrap_err(),
            "line 5: repeated serve event field \"volume\""
        );
    }
}
