#include "base/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace shrimp::stats
{

// ---- Distribution ------------------------------------------------------

std::size_t
Distribution::bucketOf(double v)
{
    if (!(v >= 1.0))
        return 0;
    // bit_width(uint64(v)) == 1 + floor(log2(v)) for v >= 1 (truncation
    // stays within the same power-of-two bucket), without the libm call
    // — sample() runs once per packet.
    if (v >= 0x1p62)
        return numBuckets - 1;
    std::size_t i = std::size_t(std::bit_width(std::uint64_t(v)));
    return std::min(i, numBuckets - 1);
}

double
Distribution::bucketLo(std::size_t i)
{
    return i == 0 ? 0.0 : std::ldexp(1.0, int(i) - 1);
}

void
Distribution::merge(const Distribution &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0 || other.min_ < min_)
        min_ = other.min_;
    if (count_ == 0 || other.max_ > max_)
        max_ = other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
    for (std::size_t i = 0; i < numBuckets; ++i)
        buckets_[i] += other.buckets_[i];
}

void
Distribution::dump(std::ostream &os, const std::string &prefix) const
{
    os << prefix << " count=" << count() << " mean=" << mean()
       << " min=" << min() << " max=" << max() << "\n";
    for (std::size_t i = 0; i < numBuckets; ++i) {
        if (buckets_[i] == 0)
            continue;
        os << prefix << ".bucket[" << bucketLo(i) << ","
           << bucketLo(i + 1) << ") " << buckets_[i] << "\n";
    }
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
    buckets_.fill(0);
}

// ---- Group -------------------------------------------------------------

Group::Group(std::string name) : name_(std::move(name))
{
    StatRegistry::global().add(*this);
}

Group::~Group()
{
    StatRegistry::global().remove(*this);
}

Counter &
Group::counter(const std::string &stat_name)
{
    auto [it, fresh] = counters_.try_emplace(stat_name);
    if (fresh)
        StatRegistry::global().bumpGeneration();
    return it->second;
}

Distribution &
Group::distribution(const std::string &stat_name)
{
    return dists_[stat_name];
}

std::uint64_t
Group::get(const std::string &stat_name) const
{
    auto it = counters_.find(stat_name);
    return it == counters_.end() ? 0 : it->second.value();
}

void
Group::dump(std::ostream &os) const
{
    for (const auto &[k, c] : counters_)
        os << name_ << "." << k << " " << c.value() << "\n";
    for (const auto &[k, d] : dists_)
        d.dump(os, name_ + "." + k);
}

void
Group::reset()
{
    for (auto &[k, c] : counters_)
        c.reset();
    for (auto &[k, d] : dists_)
        d.reset();
}

// ---- StatRegistry ------------------------------------------------------

StatRegistry &
StatRegistry::global()
{
    // analyze: allow(shared-mutable-static) — deliberate process-wide
    // registry: every Machine's stats land in one dump
    static StatRegistry registry;
    return registry;
}

void
StatRegistry::add(Group &g)
{
    groups_.push_back(&g);
    ++generation_;
}

void
StatRegistry::remove(Group &g)
{
    groups_.erase(std::remove(groups_.begin(), groups_.end(), &g),
                  groups_.end());
    ++generation_;
    Retired &r = retired_[g.name()];
    for (const auto &[k, c] : g.counters())
        r.counters[k] += c.value();
    for (const auto &[k, d] : g.distributions())
        r.dists[k].merge(d);
}

Group *
StatRegistry::find(const std::string &name)
{
    for (Group *g : groups_) {
        if (g->name() == name)
            return g;
    }
    return nullptr;
}

void
StatRegistry::dumpAll(std::ostream &os) const
{
    for (const Group *g : groups_)
        g->dump(os);
    for (const auto &[name, r] : retired_) {
        for (const auto &[k, v] : r.counters)
            os << "retired." << name << "." << k << " " << v << "\n";
        for (const auto &[k, d] : r.dists)
            d.dump(os, "retired." + name + "." + k);
    }
}

} // namespace shrimp::stats
