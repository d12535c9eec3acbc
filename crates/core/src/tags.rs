//! Central message-tag registry.
//!
//! Every tag a protocol in this workspace puts on the wire is declared
//! here, with its namespace (which protocol owns it) and its
//! protected/faultable classification. Two consumers keep the table
//! honest:
//!
//! * the engine derives its fault-plan protect list from
//!   [`protected_values`](crate::tags::protected_values), so the
//!   classification here *is* the behaviour — a tag marked protected
//!   cannot be dropped, delayed or duplicated by a
//!   [`fastann_mpisim::FaultPlan`];
//! * `fastann-check lint` cross-checks every `const TAG_*` declaration and
//!   every tag passed to `send_bytes`/`send_bytes_at` in library code
//!   against this table, so an unregistered tag fails CI.
//!
//! Protected tags form the control plane: shutdown markers and the flush
//! handshake the engine master uses as its failure detector under faults (a
//! perfect detector in the ULFM sense). Faultable tags are the data plane
//! — queries and results — which the retry/failover machinery can recover.

/// One registered wire tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagSpec {
    /// Protocol that owns the tag: `"engine"` (master–worker search),
    /// `"owner"` (multiple-owner search), `"build"` (distributed VP-tree
    /// construction), `"kdtree"` (distributed KD-tree build/search).
    pub namespace: &'static str,
    /// Constant name as it appears in source.
    pub name: &'static str,
    /// Wire value (bit 63 is reserved for collective-internal traffic and
    /// never appears here).
    pub value: u64,
    /// `true` for control-plane tags that fault injection must never touch.
    pub protected: bool,
    /// One-line purpose.
    pub doc: &'static str,
}

/// The registry. Keep entries grouped by namespace and sorted by value;
/// `fastann-check lint` parses this table textually (name/value/protected
/// per entry), so keep one field per line.
pub const TAG_TABLE: &[TagSpec] = &[
    TagSpec {
        namespace: "engine",
        name: "TAG_QUERY",
        value: 201,
        protected: false,
        doc: "master -> worker: one (query, partition) work item",
    },
    TagSpec {
        namespace: "engine",
        name: "TAG_RESULT",
        value: 202,
        protected: false,
        doc: "worker -> master: one answered probe",
    },
    TagSpec {
        namespace: "engine",
        name: "TAG_END",
        value: 203,
        protected: true,
        doc: "master -> worker: batch over, shut down",
    },
    TagSpec {
        namespace: "engine",
        name: "TAG_FLUSH",
        value: 205,
        protected: true,
        doc: "master -> worker: acknowledge once queued work is served",
    },
    TagSpec {
        namespace: "engine",
        name: "TAG_FLUSH_ACK",
        value: 206,
        protected: true,
        doc: "worker -> master: answer to TAG_FLUSH",
    },
    TagSpec {
        namespace: "owner",
        name: "TAG_QUERY",
        value: 301,
        protected: false,
        doc: "owner -> target node: one (query, partition) work item",
    },
    TagSpec {
        namespace: "owner",
        name: "TAG_RESULT",
        value: 302,
        protected: false,
        doc: "target node -> owner: one answered probe",
    },
    TagSpec {
        namespace: "owner",
        name: "TAG_COUNT",
        value: 303,
        protected: true,
        doc: "node -> node: how many queries to expect from the sender",
    },
    TagSpec {
        namespace: "build",
        name: "TAG_SUBTREE",
        value: 101,
        protected: true,
        doc: "builder -> builder: a merged VP-tree subtree during construction",
    },
    TagSpec {
        namespace: "kdtree",
        name: "TAG_P1",
        value: 1,
        protected: false,
        doc: "master -> worker: phase-1 probe to the home leaf",
    },
    TagSpec {
        namespace: "kdtree",
        name: "TAG_P2",
        value: 2,
        protected: false,
        doc: "master -> worker: phase-2 probe to an overlapping leaf",
    },
    TagSpec {
        namespace: "kdtree",
        name: "TAG_R1",
        value: 3,
        protected: false,
        doc: "worker -> master: phase-1 answer",
    },
    TagSpec {
        namespace: "kdtree",
        name: "TAG_R2",
        value: 4,
        protected: false,
        doc: "worker -> master: phase-2 answer",
    },
    TagSpec {
        namespace: "kdtree",
        name: "TAG_END",
        value: 5,
        protected: true,
        doc: "master -> worker: batch over, shut down",
    },
    TagSpec {
        namespace: "kdtree",
        name: "TAG_SKEL",
        value: 6,
        protected: true,
        doc: "builder -> master: the serialized tree skeleton",
    },
    TagSpec {
        namespace: "kdtree",
        name: "TAG_SUBTREE",
        value: 7,
        protected: true,
        doc: "builder -> builder: a merged subtree during construction",
    },
];

/// Wire values of the protected (control-plane) tags of `namespace` — the
/// list the chaos engine hands to [`fastann_mpisim::FaultPlan::protect`].
pub fn protected_values(namespace: &str) -> Vec<u64> {
    TAG_TABLE
        .iter()
        .filter(|t| t.namespace == namespace && t.protected)
        .map(|t| t.value)
        .collect()
}

/// Looks up the spec of `value` within `namespace`.
pub fn spec_of(namespace: &str, value: u64) -> Option<&'static TagSpec> {
    TAG_TABLE
        .iter()
        .find(|t| t.namespace == namespace && t.value == value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_and_names_unique_within_namespace() {
        for (i, a) in TAG_TABLE.iter().enumerate() {
            for b in &TAG_TABLE[i + 1..] {
                if a.namespace == b.namespace {
                    assert_ne!(
                        a.value, b.value,
                        "{}/{} value collision",
                        a.namespace, a.name
                    );
                    assert_ne!(a.name, b.name, "{}/{} name collision", a.namespace, a.name);
                }
            }
        }
    }

    #[test]
    fn no_tag_uses_the_collective_bit() {
        for t in TAG_TABLE {
            assert_eq!(t.value >> 63, 0, "{} claims the collective bit", t.name);
        }
    }

    #[test]
    fn engine_constants_match_registry() {
        use crate::engine;
        for (value, name) in [
            (engine::TAG_QUERY, "TAG_QUERY"),
            (engine::TAG_RESULT, "TAG_RESULT"),
            (engine::TAG_END, "TAG_END"),
            (engine::TAG_FLUSH, "TAG_FLUSH"),
            (engine::TAG_FLUSH_ACK, "TAG_FLUSH_ACK"),
        ] {
            let spec = spec_of("engine", value).expect("engine tag registered");
            assert_eq!(spec.name, name);
        }
    }

    #[test]
    fn engine_protect_list_is_control_plane() {
        use crate::engine;
        let p = protected_values("engine");
        assert!(p.contains(&engine::TAG_END));
        assert!(p.contains(&engine::TAG_FLUSH));
        assert!(p.contains(&engine::TAG_FLUSH_ACK));
        assert!(
            !p.contains(&engine::TAG_QUERY),
            "data plane must stay faultable"
        );
        assert!(
            !p.contains(&engine::TAG_RESULT),
            "data plane must stay faultable"
        );
    }
}
