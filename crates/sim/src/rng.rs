//! Deterministic random-number plumbing.
//!
//! Every stochastic element of the workspace (synthetic sensor signals,
//! jitter, noise) draws from a stream derived from a single experiment seed,
//! so a whole scenario replays identically from one `u64`. Streams are
//! derived by hashing `(seed, label)` with SplitMix64, so adding a new
//! consumer never shifts the draws of existing ones — unlike handing a
//! single RNG around.
//!
//! The generator itself ([`SimRng`], xoshiro256++) is implemented here with
//! no external dependencies, which keeps the workspace `std`-only and — more
//! importantly — makes every draw bit-stable across platforms, compiler
//! versions and thread schedules. That stability is what the parallel fleet
//! runner in `iotse-core` leans on: a scenario seeded from its key produces
//! the same byte-identical result whether it runs alone or on any worker of
//! an 8-thread pool.

use std::ops::{Range, RangeInclusive};

/// One round of the SplitMix64 mixing function.
#[must_use]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ stream.
///
/// The API intentionally mirrors the small slice of `rand` the workspace
/// used (`gen`, `gen_range`, `gen_bool`), so signal generators read the
/// same; the implementation is self-contained and bit-reproducible.
///
/// # Examples
///
/// ```
/// use iotse_sim::rng::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.gen::<f64>(), b.gen::<f64>());
/// assert!((0..10u32).contains(&a.gen_range(0..10u32)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seeds a stream by expanding `seed` through SplitMix64 (the xoshiro
    /// authors' recommended initialization).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix64(z);
        }
        // The all-zero state is the one fixed point; SplitMix64 cannot
        // produce four zero outputs from sequential inputs, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// The next raw 64-bit draw (xoshiro256++).
    #[must_use]
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform draw of type `T` (full integer range, `[0, 1)` for floats,
    /// fair coin for `bool`).
    #[must_use]
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform draw from `range` (half-open `a..b` or inclusive `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[must_use]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.gen::<f64>() < p
    }

    /// A standard normal draw (mean 0, variance 1), by the ziggurat method
    /// of Marsaglia and Tsang (2000) with 256 layers.
    ///
    /// One [`next_u64`](SimRng::next_u64) supplies both the layer (its low
    /// 8 bits) and a signed uniform value (its high 53 bits). About 99 % of
    /// draws end there, in a multiply and a compare; the rest sample a
    /// layer's wedge under the density, or the tail beyond
    /// `R ≈ 3.654`, from further draws. The layer tables are constants,
    /// so a generator carries no state beyond its four words.
    #[must_use]
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            // The high 53 bits as a uniform value in [-1, 1), exactly.
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
            let x = u * ZIG_X[i];
            if x.abs() < ZIG_X[i + 1] {
                return x;
            }
            if i == 0 {
                // lint: the tail layer: about one draw in 4 000 lands here
                return self.normal_tail(u < 0.0);
            }
            let y = ZIG_F[i + 1] + (ZIG_F[i] - ZIG_F[i + 1]) * self.gen::<f64>();
            if y < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// A draw from the normal tail beyond `ZIG_X[1]`, by Marsaglia's
    /// exponential rejection, negated if `negative`.
    fn normal_tail(&mut self, negative: bool) -> f64 {
        let r = ZIG_X[1];
        loop {
            // `1 − U` lies in (0, 1], so neither logarithm is infinite.
            let x = -(1.0 - self.gen::<f64>()).ln() / r;
            let y = -(1.0 - self.gen::<f64>()).ln();
            if y + y >= x * x {
                return if negative { -(r + x) } else { r + x };
            }
        }
    }

    /// Splits off an independent child stream and advances the parent.
    ///
    /// The child's seed is a SplitMix64 hash of one parent draw, so (a)
    /// repeated splits from the same parent state yield the same sequence of
    /// children, and (b) the child's output prefix does not replay the
    /// parent's — the fleet runner uses this to hand each worker-local
    /// consumer its own stream without any cross-thread coordination.
    #[must_use]
    pub fn split(&mut self) -> SimRng {
        // XOR with a distinct constant keeps the child's seed domain apart
        // from plain `seed_from_u64(next_u64())` usage.
        SimRng::seed_from_u64(splitmix64(self.next_u64() ^ 0xA5A5_5A5A_C3C3_3C3C))
    }
}

/// Types [`SimRng::gen`] can draw uniformly.
pub trait Sample {
    /// Draws one value.
    fn sample(rng: &mut SimRng) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            // lint: truncating a uniform u64 to a narrower int keeps it uniform
            #[allow(clippy::cast_possible_truncation)]
            fn sample(rng: &mut SimRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Sample for bool {
    fn sample(rng: &mut SimRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Sample for f64 {
    #[inline]
    fn sample(rng: &mut SimRng) -> Self {
        // 53 high bits → [0, 1) with full double precision.
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Sample for f32 {
    // lint: the >> 40 leaves 24 bits, which f32's mantissa holds exactly
    #[allow(clippy::cast_possible_truncation)]
    fn sample(rng: &mut SimRng) -> Self {
        ((rng.next_u64() >> 40) as f32) / (1u64 << 24) as f32
    }
}

/// Ranges [`SimRng::gen_range`] can draw from.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample(self, rng: &mut SimRng) -> T;
}

macro_rules! impl_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            // lint: uniform_u64(span) < span, which fits the range's own type
            #[allow(clippy::cast_possible_truncation)]
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            // lint: uniform_u64(span + 1) <= span, which fits the range's own type
            #[allow(clippy::cast_possible_truncation)]
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_sint {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            // lint: two's-complement wrapping offset maps back into the signed range
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            // lint: two's-complement wrapping offset maps back into the signed range
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_range_sint!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let u: f64 = rng.gen();
        let v = self.start + u * (self.end - self.start);
        // Floating rounding can land exactly on `end`; fold it back in.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample(self, rng: &mut SimRng) -> f32 {
        assert!(self.start < self.end, "empty range");
        let u: f32 = rng.gen();
        let v = self.start + u * (self.end - self.start);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// Uniform draw from `[0, bound)` by multiply-shift (Lemire), debiased with
/// one rejection round at most in practice.
fn uniform_u64(rng: &mut SimRng, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    // Widening multiply keeps the draw unbiased enough for simulation use
    // while staying branch-cheap; the slight modulo bias of a naive `%`
    // would still be deterministic but this is just as cheap.
    loop {
        let x = rng.next_u64();
        let m = u128::from(x) * u128::from(bound);
        // lint: Lemire rejection wants exactly the low 64 bits of the product
        #[allow(clippy::cast_possible_truncation)]
        let lo = m as u64;
        if lo >= bound.wrapping_neg() % bound {
            // lint: m >> 64 of a u128 product is by construction < 2^64
            #[allow(clippy::cast_possible_truncation)]
            return (m >> 64) as u64;
        }
    }
}

/// The FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Right edges of the 256 ziggurat layers under `f(x) = exp(−x²/2)`, from
/// the base strip's width `x[0] = V / f(R)` through `x[1] = R` down to
/// `x[256] = 0`, each layer of area `V`: `x[i + 1] = f⁻¹(f(x[i]) + V / x[i])`
/// (`R = 3.6541528853610088`, `V = 0.00492867323399`, Marsaglia and Tsang
/// 2000). `ziggurat_tables_follow_the_recurrence` recomputes them.
#[rustfmt::skip]
const ZIG_X: [f64; 257] = [
    3.91075795953709, 3.654152885361009, 3.4492782985609645, 3.320244733839166,
    3.224575052047029, 3.14788928951715, 3.083526132001233, 3.0278377917686354,
    2.978603279880845, 2.9343668672078542, 2.894121053612348, 2.8571387308721325,
    2.822877396825325, 2.7909211740007858, 2.7609440052788226, 2.732685359042827,
    2.705933656121858, 2.680514643284522, 2.6562830375755024, 2.6331163936303246,
    2.6109105184875485, 2.589575986706995, 2.5690354526805366, 2.5492215503234608,
    2.530075232158517, 2.5115444416253423, 2.4935830412696807, 2.4761499396691433,
    2.4592083743333113, 2.4427253181989568, 2.426670984935726, 2.4110184138996855,
    2.3957431197804806, 2.380822795170626, 2.3662370567158186, 2.35196722737766,
    2.3379961487950314, 2.324308018869623, 2.31088825059985, 2.2977233489013296,
    2.284800802722946, 2.272108990226824, 2.259637095172218, 2.2473750329458078,
    2.235313384928328, 2.2234433400909057, 2.2117566428825444, 2.200245546609648,
    2.1889027716247207, 2.1777214677386416, 2.166695180352646, 2.1558178198750633,
    2.1450836340462036, 2.13448718284432, 2.1240233156878157, 2.113687150684934,
    2.103474055713147, 2.0933796311370503, 2.083399693996552, 2.0735302635169788,
    2.0637675478099564, 2.054107931648865, 2.044547965215733, 2.0350843537278087,
    2.025713947862033, 2.0164337349043717, 2.007240830558685, 1.9981324713565642,
    1.9891060076155713, 1.9801588968985984, 1.9712886979317696, 1.962493064942462,
    1.953769742382734, 1.945116560006754, 1.936531428273759, 1.9280123340507183,
    1.9195573365912288, 1.9111645637692822, 1.9028322085484464, 1.89455852566871,
    1.8863418285347764, 1.8781804862909777, 1.8700729210692368, 1.8620176053976323,
    1.8540130597581481, 1.8460578502831198, 1.8381505865807286, 1.8302899196806666,
    1.8224745400917832, 1.8147031759641676, 1.8069745913486934, 1.7992875845475802,
    1.79164098655001, 1.7840336595472763, 1.776464495522345, 1.768932414909078,
    1.7614363653167067, 1.753975320315455, 1.746548278279493, 1.739154261283669,
    1.7317923140507072, 1.7244615029457757, 1.7171609150155407, 1.709889657069006,
    1.702646854797614, 1.6954316519322385, 1.6882432094348587, 1.6810807047228233,
    1.6739433309237604, 1.6668302961592867, 1.6597408228557895, 1.6526741470806485,
    1.6456295179023603, 1.6386061967731111, 1.631603456932422, 1.6246205828305684,
    1.6176568695705342, 1.6107116223673337, 1.603784156023583, 1.5968737944202613,
    1.5899798700216485, 1.5831017233934714, 1.5762387027333329, 1.5693901634125345,
    1.5625554675284397, 1.555733983466555, 1.5489250854715355, 1.5421281532263476,
    1.5353425714388431, 1.5285677294350246, 1.521803020758293, 1.5150478427739924,
    1.508301596278572, 1.5015636851127065, 1.4948335157777184, 1.4881104970546544,
    1.4813940396253757, 1.4746835556950255, 1.467978458615231, 1.4612781625074078,
    1.4545820818855233, 1.4478896312776697, 1.441200224845798, 1.4345132760029464,
    1.4278281970272904, 1.4211443986723231, 1.4144612897724647, 1.4077782768433715,
    1.4010947636762026, 1.3944101509250713, 1.3877238356868846, 1.381035211072742,
    1.3743436657700305, 1.367648583594318, 1.3609493430301018, 1.3542453167594306,
    1.3475358711773593, 1.3408203658931521, 1.3340981532160836, 1.3273685776246247,
    1.32063097521773, 1.313884673146869, 1.3071289890273539, 1.3003632303274337,
    1.2935866937335176, 1.2867986644897864, 1.2799984157103332, 1.2731852076618437,
    1.2663582870146883, 1.2595168860601442, 1.2526602218912979, 1.245787495544998,
    1.2388978911020274, 1.231990574742445, 1.225064693752808, 1.2181193754817266,
    1.2111537262399112, 1.2041668301405601, 1.197157747875586, 1.1901255154228016,
    1.1830691426787607, 1.1759876120114898, 1.1688798767268338, 1.1617448594415742,
    1.1545814503558518, 1.1473885054167339, 1.1401648443639958, 1.132909248648337,
    1.1256204592112944, 1.118297174115063, 1.1109380460092495, 1.1035416794202682,
    1.0961066278476035, 1.0886313906495142, 1.0811144096988894, 1.0735540657878717,
    1.0659486747575067, 1.0582964833260065, 1.0505956645862071, 1.0428443131393705,
    1.0350404398286053, 1.0271819660307513, 1.0192667174605292, 1.0112924174349784,
    1.0032566795395914, 0.9951569996299431, 0.9869907470938463, 0.9787551552889378,
    0.9704473110588646, 0.9620641432176052, 0.9536024098755727, 0.9450586844625711,
    0.9364293402808969, 0.9277105333962348, 0.918898183643735, 0.909987953490769,
    0.9009752244551745, 0.8918550707267924, 0.8826222295789101, 0.8732710680824946,
    0.8637955455468269, 0.8541891710015606, 0.8444449549024237, 0.8345553540795188,
    0.8245122087452886, 0.8143066701280643, 0.8039291169826649, 0.7933690588331528,
    0.7826150232995888, 0.7716544242167394, 0.7604734064220832, 0.7490566620095817,
    0.7373872114258386, 0.7254461409013035, 0.7132122851820227, 0.7006618410975844,
    0.6877678927862577, 0.6744998228274365, 0.660822574234206, 0.6466957148843889,
    0.6320722363750246, 0.6168969899962355, 0.6011046177439404, 0.5846167660937223,
    0.567338257040473, 0.5491517023130268, 0.5299097206464951, 0.5094233295859334,
    0.48744396612175434, 0.46363433677176324, 0.43751840218666266, 0.40838913458800075,
    0.3751213328504657, 0.33573751918045946, 0.2861745917472605, 0.2152418959132738,
    0.0,
];

/// `f(x[i])` for each edge in [`ZIG_X`].
#[rustfmt::skip]
const ZIG_F: [f64; 257] = [
    0.0004774677645866553, 0.001260285930498598, 0.002609072746106363, 0.0040379725933718715,
    0.005522403299264754, 0.00705087547139211, 0.008616582769422917, 0.0102149714397311,
    0.011842757857943104, 0.013497450601780807, 0.015177088307982072, 0.01688008315259584,
    0.01860512127578335, 0.020351096230109354, 0.022117062707379922, 0.023902203305873237,
    0.025705804008632656, 0.027527235669693315, 0.02936593975823011, 0.03122141719202369,
    0.0330932194586887, 0.03498094146183307, 0.03688421568869115, 0.03880270740465692,
    0.04073611065607875, 0.04268414491661938, 0.044646552251446536, 0.046623094902089664,
    0.048613553216035145, 0.05061772386112179, 0.05263541827697365, 0.054666461325077916,
    0.05671069010639947, 0.058767952921137984, 0.060838108349751806, 0.06292102443797785,
    0.06501657797147044, 0.06712465382802399, 0.06924514439725027, 0.07137794905914197,
    0.07352297371424099, 0.07568013035919496, 0.07784933670237221, 0.08003051581494751,
    0.08222359581349568, 0.08442850957065466, 0.08664519445086778, 0.08887359206859423,
    0.09111364806670073, 0.09336531191302662, 0.09562853671335333, 0.09790327903921563,
    0.10018949876917202, 0.10248715894230627, 0.10479622562286706, 0.10711666777507288,
    0.10944845714721002, 0.11179156816424558, 0.11414597782825521, 0.11651166562603701,
    0.1188886134433457, 0.12127680548523544, 0.1236762282020514, 0.12608687022065035,
    0.12850872228047364, 0.13094177717412817, 0.13338602969216284, 0.13584147657175735,
    0.13830811644906432, 0.1407859498149683, 0.14327497897404712, 0.14577520800653793,
    0.14828664273312872, 0.15080929068241017, 0.15334316106083767, 0.15588826472506456,
    0.15844461415652022, 0.16101222343811766, 0.16359110823298295, 0.16618128576511007,
    0.16878277480185033, 0.17139559563815562, 0.17401977008249936, 0.17665532144440665,
    0.1793022745235304, 0.1819606556002165, 0.18463049242750454, 0.18731181422451693,
    0.19000465167119307, 0.1927090369043288, 0.1954250035148856, 0.1981525865465381,
    0.20089182249543133, 0.2036427493111215, 0.20640540639867933, 0.20917983462193565,
    0.21196607630785294, 0.2147641752520085, 0.21757417672517837, 0.2203961274810116,
    0.2232300757647896, 0.22607607132326488, 0.22893416541557748, 0.23180441082524852,
    0.2346868618732527, 0.23758157443217368, 0.2404886059414491, 0.243408015423712,
    0.24633986350223877, 0.2492842124195167, 0.25224112605694377, 0.25521066995567715,
    0.258192911338648, 0.2611879191337637, 0.26419576399831757, 0.26721651834463184,
    0.27025025636696, 0.2732970540696758, 0.27635698929678126, 0.2794301417627653,
    0.2825165930848494, 0.2856164268166581, 0.28872972848335393, 0.291856585618281,
    0.29499708780116257, 0.29815132669790134, 0.3013193961020341, 0.3045013919778963,
    0.30769741250555377, 0.3109075581275637, 0.31413193159763014, 0.3173706380312224,
    0.32062378495823013, 0.323891482377732, 0.3271738428149586, 0.3304709813805371,
    0.3337830158321085, 0.3371100666384128, 0.34045225704594545, 0.34380971314829134,
    0.3471825639582515, 0.3505709414828812, 0.35397498080156925, 0.3573948201472905,
    0.36083060099117575, 0.3642824681305496, 0.3677505697805962, 0.37123505766982134,
    0.3747360871394914, 0.3782538172472381, 0.38178841087503135, 0.38534003484173396,
    0.3889088600204646, 0.39249506146101076, 0.3960988185175471, 0.39972031498193167,
    0.4033597392228689, 0.40701728433124795, 0.4106931482719832, 0.4143875340427068,
    0.4181006498396846, 0.4218327092313533, 0.4255839313399006, 0.4293545410313415,
    0.43314476911457406, 0.4369548525499293, 0.4407850346677699, 0.44463556539772775,
    0.44850670150921407, 0.4523987068638825, 0.45631185268077357, 0.4602464178149235,
    0.46420268905027884, 0.46818096140782217, 0.47218153846988326, 0.4762047327216838,
    0.4802508659112497, 0.4843202694289116, 0.48841328470771206, 0.49253026364614866,
    0.4966715690547963, 0.5008375751284821, 0.5050286679458288, 0.5092452459981361,
    0.513487720749743, 0.5177565172322006, 0.5220520746747949, 0.5263748471741867,
    0.5307253044061939, 0.5351039323830196, 0.5395112342595446, 0.5439477311926499,
    0.5484139632579211, 0.5529104904285199, 0.5574378936214863, 0.5619967758172779,
    0.5665877632589518, 0.571211506738075, 0.5758686829752105, 0.5805599961036835,
    0.5852861792663003, 0.590047996335792, 0.5948462437709913, 0.5996817526221677,
    0.6045553907005495, 0.6094680649288954, 0.6144207238920768, 0.6194143606090392,
    0.6244500155502742, 0.6295287799281283, 0.63465179929096, 0.639820277456439,
    0.6450354808242519, 0.6502987431142946, 0.6556114705832247, 0.6609751477802414,
    0.6663913439123806, 0.6718617199007664, 0.6773880362225131, 0.6829721616487914,
    0.6886160830085271, 0.6943219161300326, 0.7000919181404901, 0.7059285013367974,
    0.7118342488823585, 0.7178119326349014, 0.7238645334728816, 0.7299952645658024,
    0.7362075981312667, 0.7425052963446362, 0.7488924472237267, 0.7553735065117545,
    0.7619533468415465, 0.7686373158033348, 0.7754313049861383, 0.7823418326598619,
    0.7893761435711986, 0.7965423304282546, 0.8038494831763895, 0.8113078743182199,
    0.8189291916094148, 0.8267268339520942, 0.8347162929929304, 0.8429156531184411,
    0.8513462584651237, 0.8600336212030086, 0.8690086880437932, 0.8783096558161468,
    0.8879846607633999, 0.898095921906304, 0.9087264400605629, 0.9199915050483602,
    0.9320600759689902, 0.945198953453078, 0.9598790918124159, 0.9771017012827313,
    1.0,
];

/// A root seed from which independent, label-addressed RNG streams are
/// derived.
///
/// # Examples
///
/// ```
/// use iotse_sim::rng::SeedTree;
///
/// let tree = SeedTree::new(42);
/// let mut accel = tree.stream("sensor/accelerometer");
/// let mut sound = tree.stream("sensor/sound");
/// // Streams are independent and reproducible:
/// let a1: f64 = accel.gen();
/// let mut accel2 = SeedTree::new(42).stream("sensor/accelerometer");
/// assert_eq!(a1, accel2.gen::<f64>());
/// let _ = sound;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedTree {
    root: u64,
}

impl SeedTree {
    /// Creates a seed tree from a root seed.
    #[must_use]
    pub fn new(root: u64) -> Self {
        SeedTree { root }
    }

    /// The root seed.
    #[must_use]
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derives the 64-bit sub-seed for `label`.
    #[must_use]
    pub fn derive(&self, label: &str) -> u64 {
        // FNV-1a over the label, mixed with the root through SplitMix64.
        splitmix64(self.root ^ splitmix64(fnv1a(FNV_OFFSET, label.as_bytes())))
    }

    /// Derives the sub-seed of the label `prefix` followed by `index` in
    /// decimal: `derive(&format!("{prefix}{index}"))`, without building
    /// the string.
    #[must_use]
    pub fn derive_indexed(&self, prefix: &str, index: u64) -> u64 {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut n = index;
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        let h = fnv1a(fnv1a(FNV_OFFSET, prefix.as_bytes()), &digits[at..]);
        splitmix64(self.root ^ splitmix64(h))
    }

    /// Returns a fresh RNG for `label`, independent of all other labels.
    #[must_use]
    pub fn stream(&self, label: &str) -> SimRng {
        SimRng::seed_from_u64(self.derive(label))
    }

    /// Returns `n` index-addressed sibling streams split under `label`.
    ///
    /// Stream `i` is reproducible from `(root, label, i)` alone — the fleet
    /// runner derives one per scenario so workers never share RNG state.
    #[must_use]
    pub fn streams(&self, label: &str, n: usize) -> Vec<SimRng> {
        (0..n)
            .map(|i| SimRng::seed_from_u64(splitmix64(self.derive(label) ^ i as u64)))
            .collect()
    }

    /// Derives a child tree, for namespacing (e.g. one tree per app
    /// instance).
    #[must_use]
    pub fn child(&self, label: &str) -> SeedTree {
        SeedTree {
            root: self.derive(label),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let t = SeedTree::new(7);
        let mut s1 = t.stream("x");
        let mut s2 = t.stream("x");
        let a: Vec<u32> = (0..8).map(|_| s1.gen()).collect();
        let b: Vec<u32> = (0..8).map(|_| s2.gen()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let t = SeedTree::new(7);
        assert_ne!(t.derive("x"), t.derive("y"));
        assert_ne!(t.derive("x"), t.derive("x/2"));
    }

    #[test]
    fn different_roots_differ() {
        assert_ne!(SeedTree::new(1).derive("x"), SeedTree::new(2).derive("x"));
    }

    #[test]
    fn child_trees_are_namespaced() {
        let t = SeedTree::new(9);
        let c1 = t.child("app/A2");
        let c2 = t.child("app/A7");
        assert_ne!(c1.derive("noise"), c2.derive("noise"));
        // Child derivation is itself deterministic.
        assert_eq!(c1.derive("noise"), t.child("app/A2").derive("noise"));
    }

    #[test]
    fn splitmix_known_values_are_stable() {
        // Pinned so that seed-derivation changes are caught by tests:
        // experiment outputs depend on these.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn f64_draws_live_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SimRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!((10..20u32).contains(&r.gen_range(10..20u32)));
            assert!((0..=5i16).contains(&r.gen_range(0..=5i16)));
            assert!((-4..=4i16).contains(&r.gen_range(-4..=4i16)));
            let f = r.gen_range(1e-12..1.0f64);
            assert!((1e-12..1.0).contains(&f));
        }
    }

    #[test]
    fn range_draws_cover_the_support() {
        let mut r = SimRng::seed_from_u64(5);
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            seen[r.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some values never drawn: {seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SimRng::seed_from_u64(6);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn split_children_are_reproducible_and_independent() {
        let mut parent1 = SimRng::seed_from_u64(11);
        let mut parent2 = SimRng::seed_from_u64(11);
        let mut c1 = parent1.split();
        let mut c2 = parent2.split();
        assert_eq!(c1.next_u64(), c2.next_u64());
        // A second split from the advanced parent differs from the first.
        let mut d1 = parent1.split();
        assert_ne!(c1.next_u64(), d1.next_u64());
    }

    #[test]
    fn derive_indexed_matches_the_formatted_label() {
        let tree = SeedTree::new(42);
        let mut indices: Vec<u64> = (0..=1_000).collect();
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            indices.extend([p - 1, p, p + 1, next - 1]);
            p = next;
        }
        indices.extend([u32::MAX.into(), u64::MAX - 1, u64::MAX]);
        for prefix in ["frame/", "", "signal/finger/"] {
            for &i in &indices {
                assert_eq!(
                    tree.derive_indexed(prefix, i),
                    tree.derive(&format!("{prefix}{i}")),
                    "{prefix}{i}"
                );
            }
        }
    }

    /// The density the ziggurat covers, unnormalized.
    fn density(x: f64) -> f64 {
        (-0.5 * x * x).exp()
    }

    /// `P(a < Z < b)` for a standard normal `Z`, by Simpson's rule.
    fn normal_mass(a: f64, b: f64) -> f64 {
        let n = 2_000;
        let h = (b - a) / f64::from(n);
        let mut sum = density(a) + density(b);
        for k in 1..n {
            let w = if k % 2 == 1 { 4.0 } else { 2.0 };
            sum += w * density(a + h * f64::from(k));
        }
        sum * h / 3.0 / (2.0 * std::f64::consts::PI).sqrt()
    }

    /// The Box–Muller draw the sensor models used before the ziggurat:
    /// the distribution oracle.
    fn box_muller(rng: &mut SimRng) -> f64 {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[test]
    fn ziggurat_tables_follow_the_recurrence() {
        // The layer area `V` of Marsaglia and Tsang's 256-layer table.
        let v = 0.004_928_673_233_99;
        let r = ZIG_X[1];
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1e-300);
        assert!(close(ZIG_X[0], v / density(r)), "base strip");
        for i in 1..255 {
            let next = (-2.0 * (v / ZIG_X[i] + density(ZIG_X[i])).ln()).sqrt();
            assert!(close(ZIG_X[i + 1], next), "edge {}", i + 1);
            // Each layer between two edges has area `V`.
            let area = ZIG_X[i] * (density(ZIG_X[i + 1]) - density(ZIG_X[i]));
            assert!((area - v).abs() < 1e-15, "layer {i}: {area}");
        }
        // The top layer closes at the mode.
        assert_eq!(ZIG_X[256], 0.0);
        assert!((v / ZIG_X[255] + density(ZIG_X[255]) - 1.0).abs() < 1e-9);
        for (i, (&x, &f)) in ZIG_X.iter().zip(&ZIG_F).enumerate() {
            assert!(close(f, density(x)), "f({i})");
        }
        // The base strip holds the rectangle under `R` plus the tail
        // beyond it (to the published constants' 11 digits).
        let tail = normal_mass(r, 40.0) * (2.0 * std::f64::consts::PI).sqrt();
        assert!((r * density(r) + tail - v).abs() < 1e-10);
    }

    /// Streaming statistics of a draw sequence: power sums for the
    /// moments, counts beyond 3σ and 4σ, and 30 χ² bins (width 0.25 on
    /// [−3.5, 3.5], plus the two tails beyond).
    #[derive(Default)]
    struct NormalStats {
        n: f64,
        sums: [f64; 4],
        beyond: [f64; 2],
        bins: [f64; 30],
    }

    impl NormalStats {
        fn of(xs: impl Iterator<Item = f64>) -> NormalStats {
            let mut st = NormalStats::default();
            for x in xs {
                st.n += 1.0;
                let mut p = 1.0;
                for sum in &mut st.sums {
                    p *= x;
                    *sum += p;
                }
                st.beyond[0] += f64::from(u8::from(x.abs() > 3.0));
                st.beyond[1] += f64::from(u8::from(x.abs() > 4.0));
                let bin = ((x + 3.75) / 0.25).floor().clamp(0.0, 29.0) as usize;
                st.bins[bin] += 1.0;
            }
            st
        }

        /// Mean, variance, skewness and excess kurtosis.
        fn moments(&self) -> [f64; 4] {
            let [s1, s2, s3, s4] = self.sums.map(|s| s / self.n);
            let var = s2 - s1 * s1;
            let m3 = s3 - 3.0 * s1 * s2 + 2.0 * s1.powi(3);
            let m4 = s4 - 4.0 * s1 * s3 + 6.0 * s1 * s1 * s2 - 3.0 * s1.powi(4);
            [s1, var, m3 / var.powf(1.5), m4 / (var * var) - 3.0]
        }

        /// Pearson's χ² against the standard normal (29 degrees of
        /// freedom).
        fn chi_square(&self) -> f64 {
            let edge = |k: usize| match k {
                0 => -40.0,
                30 => 40.0,
                _ => -3.75 + 0.25 * k as f64,
            };
            let mut chi = 0.0;
            for (k, &count) in self.bins.iter().enumerate() {
                let expected = normal_mass(edge(k), edge(k + 1)) * self.n;
                chi += (count - expected).powi(2) / expected;
            }
            chi
        }

        /// Checks every statistic against the standard normal, each within
        /// five standard errors.
        fn check(&self) {
            let n = self.n;
            let [mean, var, skew, kurt] = self.moments();
            assert!(mean.abs() < 5.0 / n.sqrt(), "mean {mean}");
            assert!((var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "variance {var}");
            assert!(skew.abs() < 5.0 * (6.0 / n).sqrt(), "skewness {skew}");
            assert!(
                kurt.abs() < 5.0 * (24.0 / n).sqrt(),
                "excess kurtosis {kurt}"
            );
            for (k, seen) in [3.0, 4.0].into_iter().zip(self.beyond) {
                let p = 2.0 * normal_mass(k, 40.0);
                let expected = p * n;
                let sd = (expected * (1.0 - p)).sqrt();
                assert!(
                    (seen - expected).abs() < 5.0 * sd + 1.0,
                    "beyond {k}σ: {seen} draws, {expected:.1} expected"
                );
            }
            let chi = self.chi_square();
            // χ²(29): mean 29, standard deviation √58 ≈ 7.6.
            assert!(chi < 29.0 + 5.0 * 58f64.sqrt(), "χ² {chi}");
        }
    }

    /// Two-sample Kolmogorov–Smirnov statistic.
    fn ks_two_sample(mut a: Vec<f64>, mut b: Vec<f64>) -> f64 {
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < a.len() && j < b.len() {
            let x = a[i].min(b[j]);
            while i < a.len() && a[i] <= x {
                i += 1;
            }
            while j < b.len() && b[j] <= x {
                j += 1;
            }
            d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
        }
        d
    }

    #[test]
    fn standard_normal_matches_the_box_muller_oracle() {
        let n = 100_000;
        let mut rng = SimRng::seed_from_u64(0x2162);
        let zig: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mut oracle_rng = SimRng::seed_from_u64(0x2163);
        let oracle: Vec<f64> = (0..n).map(|_| box_muller(&mut oracle_rng)).collect();
        NormalStats::of(oracle.iter().copied()).check();
        // Two-sample KS at α = 0.001: D < 1.949 · √(2/n).
        let d = ks_two_sample(zig, oracle);
        assert!(d < 1.949 * (2.0 / f64::from(n)).sqrt(), "KS D = {d}");
    }

    #[test]
    fn standard_normal_has_normal_moments_tails_and_bins() {
        // 10⁶ draws: enough to expect 63 beyond 4σ, where a sampler that
        // skipped its rejection steps (drawing the ziggurat's staircase
        // itself) draws none past the base strip's edge at 3.91.
        let mut rng = SimRng::seed_from_u64(0x2162);
        NormalStats::of((0..1_000_000).map(|_| rng.standard_normal())).check();
    }

    #[test]
    fn the_top_layers_hold_their_normal_mass() {
        // A wedge accepts under f at heights between f(x[i]) and
        // f(x[i + 1]). Drawing the height from a wider interval
        // over-accepts next to each layer's right edge, and most, relative
        // to the mass there, in the top layers: up to 14 % of the mass
        // between x[2] and x[1]. So χ² runs over bins at the layer edges
        // x[1] … x[TOP + 1], plus one bin for the tail beyond x[1] and one
        // for everything inside x[TOP + 1]; 10⁷ draws, since only about
        // 0.7 % of them land in these top layers.
        const TOP: usize = 16;
        let n = 10_000_000;
        let mut counts = [0.0f64; TOP + 2];
        let mut rng = SimRng::seed_from_u64(0x21C6_0F1A);
        for _ in 0..n {
            let a = rng.standard_normal().abs();
            let bin = if a < ZIG_X[TOP + 1] {
                TOP + 1
            } else {
                // Bin i (1 ≤ i ≤ TOP) holds x[i + 1] ≤ |z| < x[i]; bin 0
                // the tail.
                (1..=TOP).rev().find(|&i| a < ZIG_X[i]).unwrap_or(0)
            };
            counts[bin] += 1.0;
        }
        let expected = |bin: usize| {
            2.0 * match bin {
                0 => normal_mass(ZIG_X[1], 40.0),
                b if b <= TOP => normal_mass(ZIG_X[b + 1], ZIG_X[b]),
                _ => normal_mass(0.0, ZIG_X[TOP + 1]),
            } * f64::from(n)
        };
        let chi: f64 = counts
            .iter()
            .enumerate()
            .map(|(bin, &seen)| (seen - expected(bin)).powi(2) / expected(bin))
            .sum();
        // χ²(17): mean 17, standard deviation √34 ≈ 5.8.
        let dof = (TOP + 1) as f64;
        assert!(
            chi < dof + 5.0 * (2.0 * dof).sqrt(),
            "χ² {chi} over the top layers"
        );
    }

    #[test]
    fn the_normal_tail_has_the_conditional_mean_of_the_tail() {
        // E[Z | Z > R] = φ(R) / P(Z > R).
        let r = ZIG_X[1];
        let expected = density(r) / (2.0 * std::f64::consts::PI).sqrt() / normal_mass(r, 40.0);
        let mut rng = SimRng::seed_from_u64(0x7A11);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal_tail(false)).collect();
        assert!(draws.iter().all(|&x| x > r));
        let mean = draws.iter().sum::<f64>() / f64::from(n);
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / f64::from(n);
        assert!(
            (mean - expected).abs() < 5.0 * (var / f64::from(n)).sqrt(),
            "tail mean {mean}, expected {expected}"
        );
        assert!(rng.normal_tail(true) < -r);
    }

    /// 10⁷ draws through moments, tail frequencies and χ²; CI runs it in
    /// release mode: `cargo test --release -p iotse-sim --lib -- --ignored
    /// standard_normal_sweep`.
    #[test]
    #[ignore = "10^7 draws; run in release mode"]
    fn standard_normal_sweep() {
        let mut rng = SimRng::seed_from_u64(0x5EED_2162);
        NormalStats::of((0..10_000_000).map(|_| rng.standard_normal())).check();
    }

    /// Property-style harness: runs `body` over `cases` generated seeds.
    fn forall_seeds(cases: u64, mut body: impl FnMut(u64)) {
        for case in 0..cases {
            body(splitmix64(0x51EE_D000 ^ case));
        }
    }

    const PREFIX: usize = 32;

    fn prefix(rng: &mut SimRng) -> Vec<u64> {
        (0..PREFIX).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn prop_split_prefixes_are_pairwise_disjoint() {
        // For any seed: the parent and a family of split children must not
        // share a single u64 in their first 32 draws. With 64-bit outputs a
        // chance collision is ~2⁻⁵³ per pair, so any hit means overlapping
        // streams — the failure mode that would correlate "independent"
        // sensor noise across fleet workers.
        use std::collections::HashMap;
        forall_seeds(200, |seed| {
            let mut parent = SimRng::seed_from_u64(seed);
            let mut streams = vec![parent.split(), parent.split(), parent.split()];
            streams.push(parent); // the advanced parent is a stream too
            let mut owner: HashMap<u64, usize> = HashMap::new();
            for (i, s) in streams.iter_mut().enumerate() {
                for draw in prefix(s) {
                    if let Some(j) = owner.insert(draw, i) {
                        assert_ne!(i, j, "stream {i} repeated a draw (seed {seed:#x})");
                        panic!("seed {seed:#x}: streams {j} and {i} share draw {draw:#x}");
                    }
                }
            }
        });
    }

    #[test]
    fn prop_split_children_replay_from_the_parent_seed() {
        // For any seed and any split depth: rebuilding the parent from its
        // seed and re-splitting reproduces every child bit for bit.
        forall_seeds(200, |seed| {
            let mut a = SimRng::seed_from_u64(seed);
            let mut b = SimRng::seed_from_u64(seed);
            for depth in 0..4 {
                assert_eq!(
                    prefix(&mut a.split()),
                    prefix(&mut b.split()),
                    "split #{depth} of seed {seed:#x} not reproducible"
                );
            }
            // The parents themselves stayed in lockstep throughout.
            assert_eq!(a, b);
        });
    }

    #[test]
    fn prop_sibling_streams_are_disjoint_and_index_addressed() {
        // SeedTree::streams hands the fleet one stream per scenario; stream
        // `i` must depend only on (root, label, i) and never collide with a
        // sibling's prefix.
        forall_seeds(100, |seed| {
            let tree = SeedTree::new(seed);
            let mut siblings = tree.streams("fleet", 8);
            let prefixes: Vec<Vec<u64>> = siblings.iter_mut().map(prefix).collect();
            for i in 0..prefixes.len() {
                for j in i + 1..prefixes.len() {
                    assert!(
                        prefixes[i].iter().all(|d| !prefixes[j].contains(d)),
                        "siblings {i}/{j} overlap (root {seed:#x})"
                    );
                }
            }
            // Index-addressed: a shorter family is a prefix of a longer one.
            let mut fewer = tree.streams("fleet", 3);
            for (i, s) in fewer.iter_mut().enumerate() {
                assert_eq!(prefix(s), prefixes[i], "stream {i} depends on n");
            }
        });
    }
}
