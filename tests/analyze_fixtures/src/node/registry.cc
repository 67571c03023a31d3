// shared-mutable-static fixtures: an unannotated function-local
// static and a variable at the top of an anonymous namespace
// (findings), an allowlisted singleton, a const static, and constexpr
// data and a function in the anonymous namespace (negatives).

namespace fix
{

namespace
{

int lookups = 0; // internal linkage and process lifetime, like a static

constexpr int maxLookups = 8; // negative: immutable

int
bump(int v) // negative: a function
{
    return v + 1;
}

} // namespace

struct Reg
{
    int hits = 0;
};

Reg &
global()
{
    static Reg reg; // every Machine in the process would share this
    return reg;
}

Reg &
allowedGlobal()
{
    // analyze: allow(shared-mutable-static) — deliberate process-wide
    // registry used by tests
    static Reg allowed;
    return allowed;
}

int
capacity()
{
    static const int cap = 64; // negative: immutable static
    lookups = bump(lookups);
    return lookups < maxLookups ? cap : 0;
}

} // namespace fix
