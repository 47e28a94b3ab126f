module kmem/benchmark

go 1.22

require kmem v0.0.0

replace kmem => ../
