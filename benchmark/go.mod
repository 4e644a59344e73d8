module argo/benchmark

go 1.24

require argo v0.0.0

replace argo => ../
