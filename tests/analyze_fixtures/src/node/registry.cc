// shared-mutable-static fixtures: an unannotated function-local
// static (finding), an allowlisted singleton and a const static
// (negatives).

namespace fix
{

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
    return cap;
}

} // namespace fix
