(* Aliases for modules from dependency libraries. *)

module Dist_matrix = Distmat.Dist_matrix
module Matrix_io = Distmat.Matrix_io
module Permutation = Distmat.Permutation
module Compact_sets = Cgraph.Compact_sets
module Laminar = Cgraph.Laminar
module Utree = Ultra.Utree
module Newick = Ultra.Newick
module Solver = Bnb.Solver
module Stats = Bnb.Stats
module Budget = Bnb.Budget
module Bb_tree = Bnb.Bb_tree
module Kernel = Bnb.Kernel
module Strategy = Bnb.Strategy
module Checkpoint = Bnb.Checkpoint
module Par_bnb = Parbnb.Par_bnb
module Domain_pool = Parbnb.Domain_pool
module Dist_bnb = Clustersim.Dist_bnb
module Platform = Clustersim.Platform
