/**
 * @file
 * A small statistics package (counters and distributions) so that
 * hardware models and libraries can export event counts, in the spirit of
 * gem5's stats. Stats live in named groups; every Group registers itself
 * with the global StatRegistry, which can dump all groups as text for
 * inspection in tests and benchmarks.
 *
 * Components are frequently shorter-lived than the process (benchmarks
 * build one simulated machine per measured point), so when a Group is
 * destroyed the registry folds its final values into per-name *retired*
 * totals; a dump therefore always covers everything the process has
 * simulated.
 */

#ifndef SHRIMP_BASE_STATS_HH
#define SHRIMP_BASE_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace shrimp::stats
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Running scalar distribution: count / sum / min / max / mean plus a
 * log2 histogram (bucket i counts samples in [2^(i-1), 2^i); bucket 0
 * counts samples below 1), so dumps show the shape, not just moments.
 */
class Distribution
{
  public:
    static constexpr std::size_t numBuckets = 40;

    void
    sample(double v)
    {
        if (count_ == 0 || v < min_) min_ = v;
        if (count_ == 0 || v > max_) max_ = v;
        sum_ += v;
        ++count_;
        ++buckets_[bucketOf(v)];
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }

    /** Number of samples in log2 bucket @p i. */
    std::uint64_t bucketCount(std::size_t i) const { return buckets_.at(i); }

    /** Bucket index a sample of value @p v lands in. */
    static std::size_t bucketOf(double v);

    /** Lower edge of bucket @p i (0 for the first bucket). */
    static double bucketLo(std::size_t i);

    /** Fold another distribution into this one. */
    void merge(const Distribution &other);

    /** Print moments plus the nonzero histogram buckets, one per line,
     *  each prefixed with @p prefix. */
    void dump(std::ostream &os, const std::string &prefix) const;

    void reset();

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::array<std::uint64_t, numBuckets> buckets_{};
};

/**
 * A named group of statistics belonging to one component. Components
 * register their counters by name; the group can be printed or queried.
 * Construction registers the group with StatRegistry::global();
 * destruction retires it (its values fold into the registry's per-name
 * totals). Groups are pinned (no copy/move) because the registry holds
 * a pointer.
 */
class Group
{
  public:
    explicit Group(std::string name);
    ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    /** Register a counter under @p stat_name. Returns a stable reference. */
    Counter &counter(const std::string &stat_name);

    /** Register a distribution under @p stat_name. */
    Distribution &distribution(const std::string &stat_name);

    /** Value of a registered counter; 0 if absent. */
    std::uint64_t get(const std::string &stat_name) const;

    const std::string &name() const { return name_; }
    void dump(std::ostream &os) const;
    void reset();

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Distribution> &distributions() const
    {
        return dists_;
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Distribution> dists_;
};

/**
 * A stat of a Group registered on its first use. A component that
 * counts on a hot path holds one instead of looking the stat up by
 * name each time; as with that lookup, a stat never used is never
 * registered, so it shows in no dump. The group must outlive it.
 */
template <class Stat>
class Lazy
{
  public:
    Lazy(Group &group, const char *name) : group_(group), name_(name) {}

    Stat &
    get()
    {
        if (!stat_) {
            if constexpr (std::is_same_v<Stat, Counter>)
                stat_ = &group_.counter(name_);
            else
                stat_ = &group_.distribution(name_);
        }
        return *stat_;
    }

  private:
    Group &group_;
    const char *name_;
    Stat *stat_ = nullptr;
};

using LazyCounter = Lazy<Counter>;
using LazyDistribution = Lazy<Distribution>;

/**
 * Process-wide registry of all live stat Groups plus retired totals.
 * Live groups register in construction order; lookup is by name (the
 * first live match wins). dumpAll() covers live groups and retired
 * totals.
 */
class StatRegistry
{
  public:
    static StatRegistry &global();

    /** Called by Group's constructor. */
    void add(Group &g);

    /** Called by Group's destructor; folds final values into the
     *  retired totals for the group's name. */
    void remove(Group &g);

    /** First live group named @p name, or nullptr. */
    Group *find(const std::string &name);

    const std::vector<Group *> &groups() const { return groups_; }

    /** Moves whenever a group is added or removed or a group registers
     *  a new counter, so a reader can cache counter addresses. */
    std::uint64_t generation() const { return generation_; }
    void bumpGeneration() { ++generation_; }

    /** gem5-style "group.stat value" lines for every live group, then
     *  the retired totals under "retired.". */
    void dumpAll(std::ostream &os) const;

  private:
    struct Retired
    {
        std::map<std::string, std::uint64_t> counters;
        std::map<std::string, Distribution> dists;
    };

    std::vector<Group *> groups_;
    std::map<std::string, Retired> retired_;
    std::uint64_t generation_ = 0;
};

} // namespace shrimp::stats

#endif // SHRIMP_BASE_STATS_HH
