//! Session-wide shared context: configuration, homomorphic parameters,
//! membership, per-node signers and a topology cache.
//!
//! Everything here is public knowledge in the paper's model (public keys,
//! membership views, the hash modulus `M`), so sharing one immutable
//! structure between simulated nodes does not leak anything a real
//! deployment would not.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use pag_crypto::sha256::Sha256;
use pag_crypto::{HomomorphicParams, Keyring, Signature};
use pag_membership::{Membership, NodeId, RoundTopology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::PagConfig;
use crate::messages::{MessageBody, SignedMessage};

/// Per-node signing handle: real RSA or a keyed-hash tag of identical
/// wire size (see `CryptoProfile::real_signatures`).
#[derive(Clone, Debug)]
pub enum NodeSigner {
    /// Real RSA signatures.
    Rsa(Box<Keyring>),
    /// Keyed SHA-256 tag; `len` is the emitted wire length.
    Mac {
        /// Signer secret.
        secret: [u8; 32],
        /// Emitted tag length (matches the RSA signature size).
        len: usize,
    },
}

impl NodeSigner {
    /// Per-node seed all of a node's key material derives from.
    fn node_seed(session: u64, node: NodeId) -> u64 {
        session ^ pag_membership::mix(node.value() as u64 | 0x5160_0000_0000)
    }

    /// Keyed-hash signer: derives in microseconds.
    fn derive_mac(session: u64, node: NodeId, len: usize) -> Self {
        let mut secret = [0u8; 32];
        let mut h = Sha256::new();
        h.update(&Self::node_seed(session, node).to_be_bytes());
        h.update(b"pag-node-signer");
        secret.copy_from_slice(&h.finalize());
        NodeSigner::Mac { secret, len }
    }

    /// Signs a byte string.
    pub fn sign(&self, bytes: &[u8]) -> Signature {
        match self {
            NodeSigner::Rsa(kr) => kr.sign(bytes),
            NodeSigner::Mac { secret, len } => {
                let mut h = Sha256::new();
                h.update(secret);
                h.update(bytes);
                let digest = h.finalize();
                let mut out = vec![0u8; *len];
                for (i, b) in out.iter_mut().enumerate() {
                    *b = digest[i % digest.len()];
                }
                Signature::from_bytes(out)
            }
        }
    }

    /// Verifies a signature produced by this signer's owner.
    pub fn verify(&self, bytes: &[u8], sig: &Signature) -> bool {
        match self {
            NodeSigner::Rsa(kr) => kr.verify_own(bytes, sig),
            NodeSigner::Mac { .. } => &self.sign(bytes) == sig,
        }
    }
}

/// Immutable session context shared by all nodes of a simulation.
pub struct SharedContext {
    /// Protocol configuration.
    pub config: PagConfig,
    /// The public homomorphic-hash parameters.
    pub params: HomomorphicParams,
    /// The membership directory **at session start**. Under churn every
    /// engine evolves its own copy of this view; the shared one stays
    /// frozen as the epoch-0 baseline (and keys the signer roster).
    pub membership: Membership,
    signers: BTreeMap<NodeId, NodeSigner>,
    /// Topology cache keyed by `(membership fingerprint, round)`. The
    /// fingerprint digests the actual node set (not the operation
    /// count), so engines share an entry exactly when their views hold
    /// the same members — even if views were ever to diverge, each
    /// would get its own correct topology rather than a poisoned one.
    topologies: Mutex<BTreeMap<(u64, u64), Arc<RoundTopology>>>,
}

impl std::fmt::Debug for SharedContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedContext")
            .field("nodes", &self.membership.len())
            .field("fanout", &self.config.fanout)
            .finish()
    }
}

impl SharedContext {
    /// Builds the context for `n` nodes with identifiers `0..n`.
    ///
    /// Node 0 is the source. All key material derives deterministically
    /// from `config.session_id`.
    pub fn new(config: PagConfig, n: usize) -> Arc<Self> {
        let membership = Membership::with_uniform_nodes(
            config.session_id,
            n,
            config.fanout,
            config.monitor_count,
        );
        Self::with_membership(config, membership)
    }

    /// Builds the context over an explicit membership.
    pub fn with_membership(config: PagConfig, membership: Membership) -> Arc<Self> {
        Self::with_roster(config, membership, &[])
    }

    /// Builds the context over an explicit membership plus `joiners`:
    /// nodes that are not members yet but will join mid-session. Key
    /// material is derived for the whole roster up front — the "key
    /// distribution" half of joiner bootstrap, standing in for the PKI
    /// the paper's membership substrate provides.
    pub fn with_roster(
        config: PagConfig,
        membership: Membership,
        joiners: &[NodeId],
    ) -> Arc<Self> {
        let mut rng = StdRng::seed_from_u64(config.session_id ^ 0x9A6_0000);
        let params = HomomorphicParams::generate(config.crypto.homomorphic_bits, &mut rng);
        let roster: Vec<NodeId> = membership
            .nodes()
            .iter()
            .chain(joiners.iter())
            .copied()
            .collect();
        let session = config.session_id;
        let signers = if config.crypto.real_signatures {
            // RSA keygen is milliseconds per node and a pure function of
            // the node seed: derive the roster in bulk, in parallel.
            let seeds: Vec<u64> = roster
                .iter()
                .map(|&id| NodeSigner::node_seed(session, id))
                .collect();
            let keyrings = Keyring::from_seeds(&seeds, config.crypto.rsa_bits);
            roster
                .iter()
                .zip(keyrings)
                .map(|(&id, kr)| (id, NodeSigner::Rsa(Box::new(kr))))
                .collect()
        } else {
            roster
                .iter()
                .map(|&id| (id, NodeSigner::derive_mac(session, id, config.wire.signature)))
                .collect()
        };
        Arc::new(SharedContext {
            config,
            params,
            membership,
            signers,
            topologies: Mutex::new(BTreeMap::new()),
        })
    }

    /// Every node that can ever hold a key in this session: initial
    /// members plus registered joiners, in sorted order.
    pub fn roster(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.signers.keys().copied()
    }

    /// The signer of `node`.
    ///
    /// # Panics
    ///
    /// Panics for unknown nodes.
    pub fn signer(&self, node: NodeId) -> &NodeSigner {
        self.signers.get(&node).expect("signer for member node")
    }

    /// Whether `node` belongs to this session's key roster. Code
    /// handling ids that arrive off the wire must check this before
    /// [`SharedContext::signer`], which panics on unknown ids;
    /// [`SharedContext::verify`] and [`SharedContext::verify_evidence`]
    /// do.
    pub fn knows(&self, node: NodeId) -> bool {
        self.signers.contains_key(&node)
    }

    /// Signs a message body on behalf of `node`.
    pub fn sign(&self, node: NodeId, body: MessageBody) -> SignedMessage {
        let sig = self.signer(node).sign(&body.signable_bytes());
        SignedMessage { body, sig }
    }

    /// Verifies `msg` as emitted by `node` (honors
    /// `config.verify_signatures`). A `node` outside the key roster
    /// never verifies.
    pub fn verify(&self, node: NodeId, msg: &SignedMessage) -> bool {
        self.verify_evidence(node, &msg.body.signable_bytes(), &msg.sig)
    }

    /// Verifies detached evidence bytes signed by `node` (honors
    /// `config.verify_signatures`). A `node` outside the key roster
    /// never verifies.
    pub fn verify_evidence(&self, node: NodeId, bytes: &[u8], sig: &Signature) -> bool {
        match self.signers.get(&node) {
            None => false,
            Some(_) if !self.config.verify_signatures => true,
            Some(signer) => signer.verify(bytes, sig),
        }
    }

    /// The cached topology of `round` under the epoch-0 (session-start)
    /// view. Engines running a churned view use
    /// [`SharedContext::topology_for`] instead.
    pub fn topology(&self, round: u64) -> Arc<RoundTopology> {
        self.topology_for(&self.membership, round)
    }

    /// The cached topology of `round` under `view` (computed once per
    /// `(node set, round)` pair, shared by all nodes holding that set).
    pub fn topology_for(&self, view: &Membership, round: u64) -> Arc<RoundTopology> {
        let key = (view.fingerprint(), round);
        let mut cache = self.topologies.lock().expect("topology cache lock");
        if let Some(t) = cache.get(&key) {
            debug_assert_eq!(t.iter().count(), view.len(), "fingerprint collision");
            return Arc::clone(t);
        }
        let topo = Arc::new(view.topology(round));
        cache.insert(key, Arc::clone(&topo));
        // Bound the cache: entries for rounds the session has moved past
        // are never queried again, so evict by lowest round — never the
        // entry just built.
        if cache.len() > 8 {
            let oldest = *cache
                .keys()
                .filter(|&&k| k != key)
                .min_by_key(|&&(fingerprint, round)| (round, fingerprint))
                .expect("other entries");
            cache.remove(&oldest);
        }
        topo
    }

    /// The session source node.
    pub fn source(&self) -> NodeId {
        self.membership.source()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CryptoProfile;

    fn ctx() -> Arc<SharedContext> {
        SharedContext::new(PagConfig::default(), 10)
    }

    #[test]
    fn sign_verify_roundtrip_mac() {
        let ctx = ctx();
        let msg = ctx.sign(NodeId(3), MessageBody::KeyRequest { round: 7 });
        assert!(ctx.verify(NodeId(3), &msg));
        assert!(!ctx.verify(NodeId(4), &msg), "wrong signer rejected");
    }

    #[test]
    fn sign_verify_roundtrip_rsa() {
        let mut config = PagConfig {
            crypto: CryptoProfile {
                homomorphic_bits: 64,
                prime_bits: 16,
                rsa_bits: 512,
                real_signatures: true,
            },
            ..PagConfig::default()
        };
        config.wire.signature = 64; // match RSA-512
        let ctx = SharedContext::new(config, 3);
        let msg = ctx.sign(NodeId(1), MessageBody::KeyRequest { round: 0 });
        assert!(ctx.verify(NodeId(1), &msg));
        assert!(!ctx.verify(NodeId(2), &msg));
    }

    #[test]
    fn mac_tag_roundtrip() {
        let signer = NodeSigner::derive_mac(2, NodeId(5), 256);
        let sig = signer.sign(b"msg");
        assert_eq!(sig.len(), 256, "wire size matches RSA-2048");
        assert!(signer.verify(b"msg", &sig));
        assert!(!signer.verify(b"other", &sig));
    }

    #[test]
    fn mac_tags_are_keyed() {
        let a = NodeSigner::derive_mac(3, NodeId(1), 64);
        let b = NodeSigner::derive_mac(3, NodeId(2), 64);
        let sig = a.sign(b"msg");
        assert!(!b.verify(b"msg", &sig), "different secret, different tag");
    }

    proptest::proptest! {
        /// A keyed-hash tag has the wire length asked for and verifies
        /// only under its owner's secret, and only for the signed bytes.
        #[test]
        fn mac_tag_verifies_only_under_its_owners_secret(
            msg in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..128),
            session in proptest::prelude::any::<u64>(),
            a in proptest::prelude::any::<u32>(),
            b in proptest::prelude::any::<u32>(),
            len in 32usize..=512, // at least the whole digest: no chance collisions
        ) {
            let owner = NodeSigner::derive_mac(session, NodeId(a), len);
            let sig = owner.sign(&msg);
            proptest::prop_assert_eq!(sig.len(), len);
            proptest::prop_assert!(owner.verify(&msg, &sig));
            let mut other_msg = msg.clone();
            other_msg.push(0);
            proptest::prop_assert!(!owner.verify(&other_msg, &sig));
            if a != b {
                let other = NodeSigner::derive_mac(session, NodeId(b), len);
                proptest::prop_assert!(!other.verify(&msg, &sig));
            }
        }
    }

    #[test]
    fn mac_signature_has_wire_length() {
        let ctx = ctx();
        let msg = ctx.sign(NodeId(0), MessageBody::KeyRequest { round: 0 });
        assert_eq!(msg.sig.len(), ctx.config.wire.signature);
    }

    #[test]
    fn verification_can_be_disabled() {
        let config = PagConfig {
            verify_signatures: false,
            ..PagConfig::default()
        };
        let ctx = SharedContext::new(config, 4);
        let mut msg = ctx.sign(NodeId(1), MessageBody::KeyRequest { round: 0 });
        msg.sig = Signature::from_bytes(vec![0; 4]);
        assert!(ctx.verify(NodeId(1), &msg), "verification disabled");
    }

    #[test]
    fn topology_cache_is_consistent() {
        let ctx = ctx();
        let t1 = ctx.topology(5);
        let t2 = ctx.topology(5);
        assert!(Arc::ptr_eq(&t1, &t2), "cached");
        for round in 0..12 {
            let t = ctx.topology(round);
            assert_eq!(t.round(), round);
        }
    }

    #[test]
    fn topology_cache_evicts_the_oldest_round_not_the_newest_view() {
        // Churn can move the current view to a fingerprint that sorts
        // before every cached one; its entry must survive its own insert.
        let ctx = ctx();
        let mut views: Vec<Membership> = (100..103)
            .map(|id| {
                let mut v = ctx.membership.clone();
                v.join(NodeId(id));
                v
            })
            .chain([ctx.membership.clone()])
            .collect();
        views.sort_by_key(Membership::fingerprint);
        let (newest, older) = (&views[0], &views[views.len() - 1]);
        for round in 0..8 {
            ctx.topology_for(older, round);
        }
        let built = ctx.topology_for(newest, 8);
        assert!(Arc::ptr_eq(&built, &ctx.topology_for(newest, 8)), "newest entry kept");
        let cache = ctx.topologies.lock().expect("topology cache lock");
        assert_eq!(cache.len(), 8);
        assert!(!cache.contains_key(&(older.fingerprint(), 0)), "oldest round evicted");
    }

    #[test]
    fn unknown_signer_fails_verification() {
        let ctx = ctx();
        let msg = ctx.sign(NodeId(3), MessageBody::KeyRequest { round: 0 });
        assert!(!ctx.knows(NodeId(999)));
        assert!(!ctx.verify(NodeId(999), &msg));
        assert!(!ctx.verify_evidence(NodeId(999), &msg.body.signable_bytes(), &msg.sig));
    }

    #[test]
    fn deterministic_context() {
        let c1 = ctx();
        let c2 = ctx();
        assert_eq!(c1.params.modulus(), c2.params.modulus());
        let m = MessageBody::KeyRequest { round: 1 };
        assert_eq!(
            c1.sign(NodeId(1), m.clone()).sig,
            c2.sign(NodeId(1), m).sig
        );
    }
}
