(* Aliases for modules from dependency libraries. *)

module Dist_matrix = Distmat.Dist_matrix
module Utree = Ultra.Utree
module Bb_tree = Bnb.Bb_tree
module Solver = Bnb.Solver
module Stats = Bnb.Stats
