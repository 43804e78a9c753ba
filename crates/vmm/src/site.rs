//! Stable identities for static memory-access instructions.
//!
//! The paper keys PMC features on x86 *instruction addresses*. In this
//! reproduction, each static access location in the simulated kernel is a
//! *site*: a named program point whose identity is an order-independent
//! FNV-1a hash of its name. Hashing (instead of sequential interning) keeps
//! identities stable across runs and processes no matter in which order sites
//! are first observed — the property that lets PMCs predicted during
//! sequential profiling be matched during concurrent execution.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, OnceLock};

/// The identity of one static memory-access instruction in the simulated
/// kernel ("instruction address" in the paper's terminology).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Site(pub u64);

/// 64-bit FNV-1a over `bytes`: the workspace's one stable, process-free
/// hash — site ids, store content keys and the fleet's config fingerprint.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn registry() -> &'static Mutex<HashMap<u64, String>> {
    static REGISTRY: OnceLock<Mutex<HashMap<u64, String>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

impl Site {
    /// Computes the stable hash of `name` without registering it.
    ///
    /// Useful for tests and for building lookup keys for sites that are known
    /// to have been interned elsewhere.
    #[inline]
    pub fn hash_of(name: &str) -> u64 {
        fnv1a(name.as_bytes())
    }

    /// Interns `name`, returning its stable [`Site`] identity.
    ///
    /// Interning the same name always yields the same identity; the name is
    /// recorded so diagnostics can map identities back to kernel locations.
    ///
    /// # Panics
    ///
    /// Panics when a *different* name with the same hash is already
    /// registered: the two instructions would otherwise become one `Site`
    /// under the first name in every PMC key, race report and lock rule.
    pub fn intern(name: &str) -> Site {
        let id = Self::hash_of(name);
        let clash = {
            let mut reg = registry().lock().expect("site registry poisoned");
            let known = reg.entry(id).or_insert_with(|| name.to_owned());
            (known != name).then(|| known.clone())
        };
        // Checked with the registry unlocked, so the panic cannot poison it.
        if let Some(known) = clash {
            panic!("site hash collision: '{name}' and '{known}' both hash to {id:#018x}");
        }
        Site(id)
    }

    /// Returns the name this site was interned under, if known.
    pub fn name(self) -> Option<String> {
        registry()
            .lock()
            .expect("site registry poisoned")
            .get(&self.0)
            .cloned()
    }

    /// Returns the site name, or the raw hash rendered in hex when the site
    /// was never interned in this process.
    pub fn display_name(self) -> String {
        self.name()
            .unwrap_or_else(|| format!("site#{:016x}", self.0))
    }
}

/// The hasher of the maps and sets the step path looks into once per access
/// or per lock operation: one rotate, xor and multiply per word, where the
/// default SipHash spends more than the lookup it serves. Their keys — sites
/// (already FNV hashes), guest addresses, kernel symbol names — all come
/// from inside the program, so nothing is lost with SipHash's protection
/// against keys crafted to collide; a map keyed from outside keeps the
/// default.
#[derive(Clone, Copy, Default)]
pub struct StepHasher(u64);

/// [`StepHasher`] as the `S` of a `HashMap` or `HashSet`.
pub type BuildStepHasher = BuildHasherDefault<StepHasher>;

impl Hasher for StepHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    // A narrow field of a derived key (an access length, a test id) is one
    // word too, not a trip through the byte loop.
    fn write_u8(&mut self, word: u8) {
        self.write_u64(u64::from(word));
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    /// The multiply leaves its best bits at the top and nothing in the low
    /// three of an 8-aligned address's; a table indexes with the low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

impl std::fmt::Debug for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Site({})", self.display_name())
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.display_name())
    }
}

/// Interns a static access-site name at the use site.
///
/// A string literal is interned once per call site and the [`Site`] cached
/// in a `static` there — kernel code evaluates `site!` on every guest
/// access, and the registry lock and hash are only worth paying the first
/// time. Any other expression is interned on every evaluation.
///
/// # Examples
///
/// ```
/// use sb_vmm::site;
///
/// let s = site!("l2tp_tunnel_register:list_add");
/// assert_eq!(s, site!("l2tp_tunnel_register:list_add"));
/// let name = String::from("l2tp_tunnel_register:list_add");
/// assert_eq!(s, site!(&name));
/// ```
#[macro_export]
macro_rules! site {
    ($name:literal) => {{
        static SITE: ::std::sync::OnceLock<$crate::site::Site> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::site::Site::intern($name))
    }};
    ($name:expr) => {
        $crate::site::Site::intern($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_order_independent() {
        let a = Site::intern("alpha");
        let b = Site::intern("beta");
        let a2 = Site::intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        // Identity depends only on the name, never on interning order.
        assert_eq!(a.0, Site::hash_of("alpha"));
    }

    #[test]
    fn names_round_trip() {
        let s = Site::intern("round_trip:site");
        assert_eq!(s.name().as_deref(), Some("round_trip:site"));
        assert_eq!(s.display_name(), "round_trip:site");
    }

    #[test]
    fn unknown_site_renders_hash() {
        let s = Site(0xdead_beef);
        assert!(s.display_name().starts_with("site#"));
    }

    #[test]
    fn macro_interns() {
        assert_eq!(site!("macro:site"), Site::intern("macro:site"));
    }

    #[test]
    fn literal_call_sites_cache_and_still_register_the_name() {
        let at = || site!("macro:cached");
        let first = at();
        assert_eq!(first.0, Site::hash_of("macro:cached"));
        assert_eq!(first.name().as_deref(), Some("macro:cached"));
        assert_eq!(at(), first);
        let name = String::from("macro:cached");
        assert_eq!(
            site!(&name),
            first,
            "the expression arm interns the same identity"
        );
    }

    #[test]
    fn step_hasher_spreads_aligned_addresses_and_names_over_the_low_bits() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let hash = BuildStepHasher::default();
        // What a hash table indexes with: 64 lock addresses one word apart
        // must not pile into a few of 64 buckets.
        let buckets: HashSet<u64> = (0..64u64)
            .map(|i| hash.hash_one(0x2000 + i * 8) & 63)
            .collect();
        assert!(buckets.len() >= 32, "{} of 64 buckets used", buckets.len());
        // A name longer than one word is hashed whole, tail included.
        assert_ne!(
            hash.hash_one("slab.alloc_count"),
            hash.hash_one("slab.alloc_counts")
        );
        assert_ne!(
            hash.hash_one("slab.alloc_count"),
            hash.hash_one("slab.free_count")
        );
        // A one- or four-byte field takes the word path and hashes as its
        // bytes did through the byte loop.
        let bytes = |b: &[u8]| {
            let mut h = StepHasher::default();
            h.write(b);
            h.finish()
        };
        assert_eq!(hash.hash_one(0xA7u8), bytes(&[0xA7]));
        assert_eq!(
            hash.hash_one(0xAABB_CCDDu32),
            bytes(&0xAABB_CCDDu32.to_le_bytes())
        );
    }

    #[test]
    fn a_hash_collision_panics_instead_of_aliasing() {
        // No two short names with one FNV-1a value are known, so plant the
        // clash: the registry already maps this hash to another name.
        registry()
            .lock()
            .unwrap()
            .insert(Site::hash_of("collide:x"), "collide:other".to_owned());
        let err = std::panic::catch_unwind(|| Site::intern("collide:x")).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(
            msg.contains("collide:x") && msg.contains("collide:other"),
            "{msg}"
        );
        // The registry survives (the check runs unlocked) and the first
        // name keeps the identity.
        assert_eq!(
            Site(Site::hash_of("collide:x")).display_name(),
            "collide:other"
        );
    }
}
