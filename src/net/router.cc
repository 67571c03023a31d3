#include "net/router.hh"

#include <cstdio>

#include "check/check.hh"

namespace shrimp::net
{

Router::Router(sim::EventQueue &queue, NodeId id, const MachineConfig &cfg)
    : queue_(queue), id_(id), linkBw_(cfg.linkBw), ejectQueue_(queue)
{
    SHRIMP_CHECK_HOOK(check::SimChecker::instance().onRouterCreated(this));
}

Router::~Router()
{
    SHRIMP_CHECK_HOOK(
        check::SimChecker::instance().onRouterDestroyed(this));
}

void
Router::connect(Dir d)
{
    auto &link = links_[int(d)];
    if (!link) {
        // Fixed-size buffer: the "router%u.link%d" strings this ctor
        // path used to build with operator+ churned four temporary
        // heap strings per link, once per link per simulated machine.
        char name[32];
        std::snprintf(name, sizeof(name), "router%u.link%d",
                      unsigned(id_), int(d));
        link = std::make_unique<sim::Bus>(queue_, linkBw_, name);
        link->setProfileSubsys(sim::profile::Subsys::Router);
    }
}

} // namespace shrimp::net
